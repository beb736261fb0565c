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

States are arrays with the coordinate dimension last. The kernels advance
an (R, N, d) stack of R clouds, row r drawing from the r-th of a list of R
generators. A public call with one state (d,) or cloud (N, d) and one
generator is lifted to R = 1 at entry, and its result is checked for
overflow and given back in the input's shape at exit.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidLevel, NumericalOverflow, whole_number


@dataclass(frozen=True)
class Level:
    """A dyadic discretization level.

    Level l uses step size dt = 2^-l, so one unit of observation time is
    covered by steps_per_unit = 2^l Euler steps and dt * steps_per_unit == 1
    exactly (both are powers of two).
    """

    l: int

    def __post_init__(self):
        if (l := whole_number(self.l, 0)) is None:
            raise InvalidLevel(f"level must be a non-negative integer, got {self.l!r}")
        object.__setattr__(self, "l", l)

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

    One particle advanced by one Euler step costs 1. Each draw or level
    run keeps its own counter and returns its count as an int; the totals
    are sums of those ints, so they do not depend on the worker count.
    """

    __slots__ = ("euler_steps",)

    def __init__(self):
        self.euler_steps = 0

    def add(self, steps):
        self.euler_steps += int(steps)


def _as_batch(x, dim):
    """View a state (d,) or cloud (N, d) as an (N, d) batch, returning the
    batch and a flag to undo it."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 and dim != 1:
        raise ValueError("scalar state given for a multidimensional model")
    if x.ndim and x.shape[-1] != dim:
        raise ValueError(f"state has dimension {x.shape[-1]}, model has {dim}")
    return (x.reshape(1, dim), True) if x.ndim < 2 else (x, False)


def _lift(x, rng, dim):
    """A stack and its list of generators as they are, or one state or cloud
    and one Generator or RngStream as an R = 1 stack and a list of one; also
    the shape that a lifted result goes back to, None for a stack."""
    if isinstance(rng, (list, tuple)):
        return x, rng, None
    xb, squeeze = _as_batch(x, dim)
    return xb[None], [getattr(rng, "gen", rng)], xb.shape[1:] if squeeze else xb.shape


def _lifted_result(model, level, shape, *clouds):
    """A stack's clouds unchecked, for the caller to drop failed rows; a
    lifted call's checked for overflow and in the input's shape."""
    if shape is None:
        return clouds
    if not all(np.isfinite(c).all() for c in clouds):
        raise overflow_error(model, level, coupled=len(clouds) == 2)
    return tuple(c.reshape(shape) for c in clouds)


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


# Each row's generator call fills at most this many doubles (256 KiB, the
# size of an L2 cache) of a unit time's Gaussian increments, or one pair of
# steps when a pair alone is larger, so a kernel's working memory does not
# grow with the level. A row's stream is the same however its draws are
# split across calls, and the grouping is a pure function of the shapes.
_MAX_BLOCK = 2 ** 15


def _step_groups(steps, n, d):
    """Steps per generator call: the largest even group whose (g, n, d)
    block fits _MAX_BLOCK, at least 2 (the coarse chain sums step pairs)
    and at most the level's steps."""
    group = max(2, min(steps, _MAX_BLOCK // max(n * d, 1) // 2 * 2))
    return [min(group, steps - s) for s in range(0, steps, group)]


def draw(gens, method, shape):
    """(R,) + shape from a list of R generators, one call each filling its
    row in place."""
    out = np.empty((len(gens),) + tuple(shape))
    for row, gen in zip(out, gens):
        getattr(gen, method)(shape, out=row)
    return out


def _increments(gens, level, n, d):
    """The unit time's Brownian increments of (R, n, d) stacks, as (R, g, n, d)
    blocks of the _step_groups of the level's 2^l steps: one generator call
    per row and block, each filling at most max(_MAX_BLOCK, 2 n d) doubles."""
    sqdt = np.sqrt(level.dt)
    for g in _step_groups(level.steps_per_unit, n, d):
        dw = draw(gens, "standard_normal", (g, n, d))
        dw *= sqdt
        yield dw


def overflow_error(model, level, coupled=False, p=None, time_index=None):
    """The NumericalOverflow of a level-l transition that left the finite
    range; a filter run also names its p and the time k the states reach."""
    kind = "coupled transition" if coupled else "transition"
    return NumericalOverflow(f"{kind} overflowed for model {model.name!r}", level.l, p, time_index)


def transition(model, x, level, rng, counter=None):
    """Sample the level-l unit-time kernel M^l(x, .) for each state in x.

    x is an (R, N, d) stack and rng a list of R Generators, or x is one
    state (d,) or cloud (N, d) and rng one Generator or RngStream. The 2^l
    Gaussian increments come in even groups of steps (_step_groups), one
    generator call per row and group, each call filling at most
    max(_MAX_BLOCK, 2 N d) doubles whatever the level; stream consumption is
    a fixed function of the level and the cloud shape. counter, if given,
    gains N * 2^l Euler steps (one row's). A stack is returned unchecked; a
    one-cloud call raises NumericalOverflow on overflow and returns an array
    shaped like x.
    """
    x, gens, shape = _lift(x, rng, model.dim)
    n, d = x.shape[1:]
    dt, drift, diffusion = level.dt, model.drift, model.diffusion
    b = diffusion(x) if model.constant_diffusion else None
    for dw in _increments(gens, level, n, d):
        for s in range(dw.shape[1]):
            x = _euler_update(x, drift, dt, diffusion(x) if b is None else b, dw[:, s])
    if counter is not None:
        counter.add(n * level.steps_per_unit)
    return _lifted_result(model, level, shape, x)[0]


def coupled_transition(model, x_fine, x_coarse, level, rng, counter=None):
    """Advance a fine/coarse pair one unit of time on shared noise.

    The fine chain runs 2^l steps of size 2^-l on fresh increments; the
    coarse chain runs 2^(l-1) steps of size 2^-(l-1) on the pairwise sums of
    those increments. Marginally each chain is exactly its single-level
    kernel; jointly they form the synchronous coupling M-check^l. The fine
    level l must be >= 1. Shapes, rng and overflow are as in transition;
    counter gains N * (2^l + 2^(l-1)) Euler steps. Returns (fine, coarse).
    """
    if level.l < 1:
        raise InvalidLevel("coupled transitions need a fine level l >= 1")
    xf, gens, shape = _lift(x_fine, rng, model.dim)
    xc = _lift(x_coarse, rng, model.dim)[0]
    if xf.shape != xc.shape:
        raise ValueError("fine and coarse states must have matching shapes")
    n, d = xf.shape[1:]
    dt, drift, diffusion = level.dt, model.drift, model.diffusion
    b = diffusion(xf) if model.constant_diffusion else None
    # Step groups are even, so fine-increment pairs never straddle a group
    # boundary and the coarse chain can be advanced group by group.
    for dw in _increments(gens, level, n, d):
        for s in range(dw.shape[1]):
            xf = _euler_update(xf, drift, dt, diffusion(xf) if b is None else b, dw[:, s])
        dw_c = dw[:, 0::2] + dw[:, 1::2]
        for s in range(dw_c.shape[1]):
            xc = _euler_update(xc, drift, 2.0 * dt, diffusion(xc) if b is None else b, dw_c[:, s])
    if counter is not None:
        counter.add(n * (level.steps_per_unit + level.steps_per_unit // 2))
    return _lifted_result(model, level, shape, xf, xc)
