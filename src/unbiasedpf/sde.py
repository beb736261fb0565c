"""Diffusion models and their level-l Euler transition kernels.

Observations arrive at unit times, so the basic object is the kernel that
advances the state by one unit of time using 2^l Euler-Maruyama steps of
size 2^-l. Level l therefore indexes a bias/cost trade-off: one unit-time
transition costs 2^l Euler steps per particle.

The coupled kernel advances a fine (level l) and a coarse (level l-1) state
together on shared noise: the fine chain consumes 2^l fresh Gaussian
increments and the coarse chain consumes their pairwise sums. Each marginal
is then exactly the corresponding single-level kernel, and for models with
constant diffusion coefficient the two chains stay numerically close, which
is what makes coupled filter increments have small variance.

States are arrays with the coordinate dimension last, either (d,) for one
state or (N, d) for a batch of particles. Everything here is vectorized
over the batch axis.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidLevel, NumericalOverflow


@dataclass(frozen=True)
class Level:
    """A dyadic discretization level.

    Level l uses step size dt = 2^-l, so one unit of observation time is
    covered by steps_per_unit = 2^l Euler steps and dt * steps_per_unit == 1
    exactly (both are powers of two).
    """

    l: int

    def __post_init__(self):
        if int(self.l) != self.l or self.l < 0:
            raise InvalidLevel(f"level must be a non-negative integer, got {self.l!r}")
        object.__setattr__(self, "l", int(self.l))

    @property
    def dt(self):
        return 2.0 ** (-self.l)

    @property
    def steps_per_unit(self):
        return 2 ** self.l


@dataclass(frozen=True)
class DiffusionModel:
    """A time-homogeneous diffusion dZ_t = a(Z_t) dt + b(Z_t) dW_t.

    Parameters
    ----------
    dim : int
        State dimension d.
    drift : callable
        Maps states (..., d) to drift values of the same shape.
    diffusion : callable
        Maps states (..., d) to diffusion matrices (..., d, d).
    initial_state : ndarray
        Deterministic starting point x*, shape (d,).
    constant_diffusion : bool
        True when b does not depend on the state; this selects the faster
        variance rates in the randomized estimators.
    name : str
        Short tag used in messages and metadata.
    """

    dim: int
    drift: object
    diffusion: object
    initial_state: object
    constant_diffusion: bool = False
    name: str = ""


class CostCounter:
    """Accumulates the number of Euler steps spent, summed over particles.

    One particle advanced by one Euler step costs 1. Counters attached to
    independent replicates are merged at reduction time, so the total is
    deterministic regardless of worker count.
    """

    __slots__ = ("euler_steps",)

    def __init__(self, euler_steps=0):
        self.euler_steps = int(euler_steps)

    def add(self, steps):
        self.euler_steps += int(steps)

    def merge(self, other):
        self.euler_steps += other.euler_steps

    def __repr__(self):
        return f"CostCounter(euler_steps={self.euler_steps})"


def _as_batch(x, dim):
    """View `x` as a (N, d) batch, returning the batch and a flag to undo it."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        if dim != 1:
            raise ValueError("scalar state given for a multidimensional model")
        return x.reshape(1, 1), True
    if x.ndim == 1:
        if x.shape[0] != dim:
            raise ValueError(f"state has dimension {x.shape[0]}, model has {dim}")
        return x.reshape(1, dim), True
    if x.shape[-1] != dim:
        raise ValueError(f"state has dimension {x.shape[-1]}, model has {dim}")
    return x, False


def _euler_update(x, drift, dt, b, dw):
    """x + a(x) dt + b dw, the one Euler update that every path runs.

    b holds diffusion matrices (N, d, d) applied to noise increments dw (N, d).
    """
    if dw.shape[-1] == 1:
        return x + drift(x) * dt + b[..., 0] * dw
    return x + drift(x) * dt + np.einsum("...ij,...j->...i", b, dw)


def euler_step(model, x, dt, dw):
    """One Euler-Maruyama update x + a(x) dt + b(x) dw.

    Parameters
    ----------
    model : DiffusionModel
    x : ndarray
        State(s), shape (d,) or (N, d).
    dt : float
        Step size.
    dw : ndarray
        Brownian increment(s), same shape as x (typically N(0, dt I) draws).

    Returns
    -------
    ndarray of the same shape as x.

    Raises
    ------
    NumericalOverflow
        If the update produces non-finite values.
    """
    xb, squeeze = _as_batch(x, model.dim)
    dwb = np.asarray(dw, dtype=float).reshape(xb.shape)
    out = _euler_update(xb, model.drift, dt, model.diffusion(xb), dwb)
    if not np.all(np.isfinite(out)):
        raise NumericalOverflow(
            f"euler step produced non-finite state for model {model.name!r}"
        )
    return out[0] if squeeze else out


# Gaussian increments for a unit-time transition are drawn in as few
# generator calls as possible (one, below this many doubles), falling back
# to even-sized groups of steps so huge (steps, N, d) blocks never
# materialize at once. The grouping is a pure function of the shapes, so
# stream consumption stays reproducible.
_MAX_BLOCK = 2 ** 21


def _step_groups(steps, n, d):
    per_step = max(n * d, 1)
    group = max(2, min(steps, (2 * _MAX_BLOCK) // (2 * per_step) * 2))
    out = []
    s = 0
    while s < steps:
        g = min(group, steps - s)
        out.append(g)
        s += g
    return out


def _unit_transition(model, x, level, gen, counter=None):
    """Advance a (N, d) batch one unit of time at the given level."""
    steps = level.steps_per_unit
    dt = level.dt
    n, d = x.shape
    sqdt = np.sqrt(dt)
    drift = model.drift
    diffusion = model.diffusion
    b = diffusion(x) if model.constant_diffusion else None
    for g in _step_groups(steps, n, d):
        dw = gen.standard_normal((g, n, d)) * sqdt
        for s in range(g):
            x = _euler_update(x, drift, dt, diffusion(x) if b is None else b, dw[s])
    if counter is not None:
        counter.add(n * steps)
    if not np.isfinite(x).all():
        raise NumericalOverflow(
            f"level-{level.l} transition overflowed for model {model.name!r}"
        )
    return x


def transition(model, x, level, rng, counter=None):
    """Sample the level-l unit-time kernel M^l(x, .) for each state in x.

    Draws all 2^l Gaussian increments in a single generator call, so the
    stream consumption per particle batch is a fixed function of the level.

    Parameters
    ----------
    model : DiffusionModel
    x : ndarray
        State(s), shape (d,) or (N, d).
    level : Level
    rng : numpy Generator or RngStream
    counter : CostCounter, optional
        Incremented by N * 2^l Euler steps.

    Returns
    -------
    ndarray of the same shape as x.
    """
    gen = getattr(rng, "gen", rng)
    xb, squeeze = _as_batch(x, model.dim)
    out = _unit_transition(model, xb, level, gen, counter)
    return out[0] if squeeze else out


def coupled_transition(model, x_fine, x_coarse, level, rng, counter=None):
    """Advance a fine/coarse pair one unit of time on shared noise.

    The fine chain runs 2^l steps of size 2^-l on fresh increments; the
    coarse chain runs 2^(l-1) steps of size 2^-(l-1) on the pairwise sums of
    those increments. Marginally each chain is exactly its single-level
    kernel; jointly they form the synchronous coupling M-check^l.

    Parameters
    ----------
    model : DiffusionModel
    x_fine, x_coarse : ndarray
        States of matching shape, (d,) or (N, d).
    level : Level
        The fine level l; must satisfy l >= 1.
    rng : numpy Generator or RngStream
    counter : CostCounter, optional
        Incremented by N * (2^l + 2^(l-1)) Euler steps.

    Returns
    -------
    (fine, coarse) : pair of ndarrays shaped like the inputs.
    """
    if level.l < 1:
        raise InvalidLevel("coupled transitions need a fine level l >= 1")
    gen = getattr(rng, "gen", rng)
    xf, squeeze = _as_batch(x_fine, model.dim)
    xc, squeeze_c = _as_batch(x_coarse, model.dim)
    if xf.shape != xc.shape:
        raise ValueError("fine and coarse states must have matching shapes")

    steps = level.steps_per_unit
    dt = level.dt
    n, d = xf.shape
    sqdt = np.sqrt(dt)
    dt_c = 2.0 * dt

    drift = model.drift
    diffusion = model.diffusion
    b_const = diffusion(xf) if model.constant_diffusion else None

    # Step groups are even, so fine-increment pairs never straddle a group
    # boundary and the coarse chain can be advanced group by group.
    for g in _step_groups(steps, n, d):
        dw = gen.standard_normal((g, n, d)) * sqdt
        for s in range(g):
            bf = b_const if b_const is not None else diffusion(xf)
            xf = _euler_update(xf, drift, dt, bf, dw[s])
        dw_c = dw[0::2] + dw[1::2]
        for s in range(g // 2):
            bc = b_const if b_const is not None else diffusion(xc)
            xc = _euler_update(xc, drift, dt_c, bc, dw_c[s])

    if counter is not None:
        counter.add(n * (steps + steps // 2))
    if not (np.isfinite(xf).all() and np.isfinite(xc).all()):
        raise NumericalOverflow(
            f"coupled level-{level.l} transition overflowed for model {model.name!r}"
        )
    if squeeze:
        return xf[0], xc[0]
    return xf, xc
