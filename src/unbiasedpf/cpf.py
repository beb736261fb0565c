"""Coupled particle filters across consecutive discretization levels.

A coupled filter carries pairs (fine, coarse) of particle clouds at levels
l and l-1, propagated on shared Gaussian increments and resampled with a
coupled scheme, so that the fine and coarse marginals are each an ordinary
bootstrap filter while the pairs stay positively correlated. The object of
interest is the increment: the fine filter functional minus the coarse one,
whose variance shrinks with l and makes level randomization affordable.
The batch loop is pf.run_batches: each batch is the pair of (N, d) arrays
(fine, coarse), and each time step yields a CpfBatchEstimate, the fine and
coarse PfBatchEstimate side by side.

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


SCHEMES = ("wasserstein", "maximal")


def check_scheme(scheme):
    """Raise ValueError unless scheme names a coupled resampling scheme."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown coupled resampling scheme {scheme!r}")


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


def cpf_step(model, level, gen, scheme, xf, xc, log_w_fine, log_w_coarse,
             counter=None):
    """One coupled filter step: coupled resampling, then coupled propagation."""
    wf = normalized_weights(log_w_fine)
    wc = normalized_weights(log_w_coarse)
    n = xf.shape[0]
    if scheme == "maximal":
        idx_f, idx_c, _ = maximal_coupling_resample(gen, wf, wc, n)
    else:
        idx_f, idx_c = wasserstein_resample(gen, xf, wf, xc, wc, n)
    return coupled_transition(model, xf[idx_f], xc[idx_c], level, gen, counter)


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
    check_scheme(scheme)
    model = bm.diffusion
    x0 = np.asarray(model.initial_state, dtype=float)
    gens = [stream.child(q).gen for q in range(p + 1)]
    batches = []
    for gen, m in zip(gens, schedule.batch_sizes(p)):
        start = np.tile(x0, (m, 1))
        batches.append(coupled_transition(model, start, start, level, gen, counter))

    def step(q, xf, xc, log_w_fine, log_w_coarse):
        return cpf_step(
            model, level, gens[q], scheme, xf, xc, log_w_fine, log_w_coarse, counter
        )

    return [
        CpfBatchEstimate(fine, coarse)
        for fine, coarse in run_batches(bm, data, p, level, batches, step)
    ]
