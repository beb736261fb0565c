"""Coupled particle filters across consecutive discretization levels.

A coupled filter carries pairs (fine, coarse) of particle clouds at levels
l and l-1, propagated on shared Gaussian increments and resampled with a
coupled scheme, so that the fine and coarse marginals are each an ordinary
bootstrap filter while the pairs stay positively correlated. The object of
interest is the increment: the fine filter functional minus the coarse one,
whose variance shrinks with l and makes level randomization affordable.
The batch loop is pf.run_batches: each batch carries the pair as two
clouds, and each time step yields a CpfBatchEstimate, the fine and coarse
PfBatchEstimate side by side.

Two resampling couplings are provided. The maximal coupling draws a shared
ancestor with the largest probability the two weight vectors allow
(alpha = sum of pointwise minima) and falls back to independent residual
draws otherwise. The Wasserstein coupling (scalar states only) pushes one
shared uniform through both weighted empirical quantile functions, which
keeps resampled pairs close in position rather than merely equal in index.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSimplex, UnsupportedDimension
from .pf import PfBatchEstimate, inverse_cdf, normalized_weights, run_batches
from .sde import coupled_transition


def _check_simplex(w, what):
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise InvalidSimplex(f"{what} must be a non-empty vector")
    if (w < -1e-12).any() or not np.isfinite(w).all():
        raise InvalidSimplex(f"{what} has negative or non-finite entries")
    if abs(float(w.sum()) - 1.0) > 1e-9:
        raise InvalidSimplex(f"{what} does not sum to 1")
    return np.maximum(w, 0.0)


@dataclass(frozen=True)
class CouplingDiagnostics:
    """alpha is the overlap sum(min(w_f, w_c)). For the maximal coupling,
    matched_fraction is the share of draws that took the common branch; for
    the Wasserstein coupling (which has no branches) it is the share of
    draws whose two ancestor indices coincided."""

    alpha: float
    matched_fraction: float


def maximal_coupling_resample(gen, w_fine, w_coarse, size):
    """Draw `size` ancestor index pairs from the maximal coupling.

    With probability alpha = sum(min(w_fine, w_coarse)) a pair shares one
    index drawn from the overlap; otherwise the two indices come
    independently from the normalized residuals. When the residual mass is
    below 1e-14 every pair is forced to match, avoiding division blowups.

    Returns (idx_fine, idx_coarse, CouplingDiagnostics).
    """
    wf = _check_simplex(w_fine, "fine weights")
    wc = _check_simplex(w_coarse, "coarse weights")
    if wf.shape != wc.shape:
        raise InvalidSimplex("weight vectors must have matching lengths")
    m = np.minimum(wf, wc)
    alpha = float(m.sum())
    u = gen.random((4, size))

    if 1.0 - alpha < 1e-14:
        j = inverse_cdf(m / alpha, u[1])
        return j, j.copy(), CouplingDiagnostics(alpha, 1.0)

    if alpha <= 0.0:
        idx_f = inverse_cdf(wf, u[2])
        idx_c = inverse_cdf(wc, u[3])
        return idx_f, idx_c, CouplingDiagnostics(0.0, 0.0)

    matched = u[0] < alpha
    shared = inverse_cdf(m / alpha, u[1])

    resid = 1.0 - alpha
    idx_f = np.where(matched, shared, inverse_cdf((wf - m) / resid, u[2]))
    idx_c = np.where(matched, shared, inverse_cdf((wc - m) / resid, u[3]))
    return idx_f, idx_c, CouplingDiagnostics(alpha, float(matched.mean()))


def wasserstein_resample(gen, pos_fine, w_fine, pos_coarse, w_coarse, size):
    """Comonotone (optimal transport) resampling for scalar states.

    One shared uniform per draw is pushed through the weighted empirical
    quantile functions of both clouds, so the resampled pairs are matched
    by rank. Only d = 1 is supported.

    Returns (idx_fine, idx_coarse).
    """
    pos_fine = np.asarray(pos_fine, dtype=float)
    pos_coarse = np.asarray(pos_coarse, dtype=float)
    if pos_fine.ndim != 2 or pos_fine.shape[1] != 1 or pos_coarse.shape[1] != 1:
        raise UnsupportedDimension("Wasserstein resampling is only implemented for d=1")
    wf = _check_simplex(w_fine, "fine weights")
    wc = _check_simplex(w_coarse, "coarse weights")

    u = gen.random(size)
    of = np.argsort(pos_fine[:, 0], kind="stable")
    oc = np.argsort(pos_coarse[:, 0], kind="stable")
    idx_f = of[inverse_cdf(wf[of], u)]
    idx_c = oc[inverse_cdf(wc[oc], u)]
    return idx_f, idx_c


@dataclass(frozen=True)
class CoupledParticleSystem:
    """Paired particle clouds at one time step of a coupled level-(l, l-1) filter."""

    model: object
    level: object
    fine: np.ndarray
    coarse: np.ndarray
    time_index: int
    stream: object
    scheme: str = "wasserstein"
    counter: object = None
    diag: object = None

    @property
    def n(self):
        return self.fine.shape[0]

    @property
    def clouds(self):
        return (self.fine, self.coarse)


def init_coupled_system(model, level, n, stream, counter=None, scheme="wasserstein"):
    """Start a coupled filter: n pairs drawn from the coupled kernel at x*."""
    if scheme not in ("maximal", "wasserstein"):
        raise ValueError(f"unknown coupled resampling scheme {scheme!r}")
    x0 = np.tile(np.asarray(model.initial_state, dtype=float), (n, 1))
    xf, xc = coupled_transition(model, x0, x0, level, stream.gen, counter)
    return CoupledParticleSystem(model, level, xf, xc, 0, stream, scheme, counter)


def cpf_step(system, log_w_fine, log_w_coarse):
    """One coupled filter step: coupled resampling, then coupled propagation."""
    lvl = system.level.l
    wf = normalized_weights(log_w_fine, level=lvl, time_index=system.time_index)
    wc = normalized_weights(log_w_coarse, level=lvl, time_index=system.time_index)
    gen = system.stream.gen
    if system.scheme == "maximal":
        idx_f, idx_c, diag = maximal_coupling_resample(gen, wf, wc, system.n)
    else:
        idx_f, idx_c = wasserstein_resample(
            gen, system.fine, wf, system.coarse, wc, system.n
        )
        alpha = float(np.minimum(wf, wc).sum())
        matched = np.count_nonzero(idx_f == idx_c) / system.n
        diag = CouplingDiagnostics(alpha, matched)
    xf, xc = coupled_transition(
        system.model, system.fine[idx_f], system.coarse[idx_c],
        system.level, gen, system.counter,
    )
    return CoupledParticleSystem(
        system.model, system.level, xf, xc, system.time_index + 1,
        system.stream, system.scheme, system.counter, diag,
    )


@dataclass(frozen=True)
class CpfBatchEstimate:
    """Per-batch functional pieces of a coupled filter at one time step.

    The fine and coarse PfBatchEstimate keep separate shared scales; the
    increment is the size-weighted fine ratio minus the size-weighted
    coarse ratio.
    """

    fine: PfBatchEstimate
    coarse: PfBatchEstimate

    def increment(self, q=None):
        return self.fine.combined(q) - self.coarse.combined(q)


def batch_cpf_run(bm, data, schedule, p, level, stream, scheme="wasserstein",
                  counter=None):
    """Run p+1 independent coupled batch filters over a dataset.

    The batch layout, child streams and prefix property mirror
    batch_pf_run; each batch carries a fine/coarse pair instead of one
    cloud. Returns one CpfBatchEstimate per observation time.
    """
    systems = [
        init_coupled_system(bm.diffusion, level, m, stream.child(q), counter, scheme)
        for q, m in enumerate(schedule.batch_sizes(p))
    ]
    return [
        CpfBatchEstimate(fine, coarse)
        for fine, coarse in run_batches(bm, data, p, level, systems, cpf_step)
    ]
