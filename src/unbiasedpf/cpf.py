"""Coupled particle filters across consecutive discretization levels.

A coupled filter carries pairs (fine, coarse) of particle clouds at levels
l and l-1, propagated on shared Gaussian increments and resampled with a
coupled scheme, so that the fine and coarse marginals are each an ordinary
bootstrap filter while the pairs stay positively correlated. The object of
interest is the increment: the fine filter functional minus the coarse one,
whose variance shrinks with l and makes level randomization affordable.
The batch loop is pf.run_batches over (R, N, d) stacks of R coupled
filters, a batch being the pair (fine, coarse); pf.combined_rows forms each
side's size-weighted estimate, and the increment is fine minus coarse.

Two resampling couplings are provided. The maximal coupling draws a shared
ancestor with the largest probability the two weight vectors allow
(alpha = sum of pointwise minima) and falls back to independent residual
draws otherwise. The Wasserstein coupling (scalar states only) pushes one
shared uniform through both weighted empirical quantile functions, which
keeps resampled pairs close in position rather than merely equal in index.
Positions are ranked by quicksort, and by a stable sort only where a cloud
has tied positions, so the rank is always the stable one.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSimplex, UnsupportedDimension
from .pf import (
    _search_sorted,
    _sorted_rows,
    combined_table,
    gather,
    inverse_cdf,
    normalized_weights,
    run_batches,
)
from .sde import coupled_transition, draw


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


def _maximal_row(wf, wc, u):
    """One row of maximal-coupling index pairs from uniforms u, (4, size);
    returns (idx_f, idx_c, alpha, matched_fraction)."""
    m = np.minimum(wf, wc)
    alpha = float(m.sum())
    if 1.0 - alpha < 1e-14:
        j = inverse_cdf(m / alpha, u[1])
        return j, j.copy(), alpha, 1.0
    if alpha <= 0.0:
        return inverse_cdf(wf, u[2]), inverse_cdf(wc, u[3]), 0.0, 0.0
    matched = u[0] < alpha
    shared = inverse_cdf(m / alpha, u[1])
    resid = 1.0 - alpha
    idx_f = np.where(matched, shared, inverse_cdf((wf - m) / resid, u[2]))
    idx_c = np.where(matched, shared, inverse_cdf((wc - m) / resid, u[3]))
    return idx_f, idx_c, alpha, float(matched.mean())


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
    idx_f, idx_c, alpha, frac = _maximal_row(wf, wc, gen.random((4, size)))
    return idx_f, idx_c, CouplingDiagnostics(alpha, frac)


def _rank(pos):
    """The stable argsort of (N, 1) or (R, N, 1) positions along the
    particles. Without ties the sorting permutation is unique, so the
    quicksort one is it; a tie (-0.0 == 0.0 is one) falls back to stable."""
    x = pos[..., 0]
    order = x.argsort(axis=-1)
    s = gather(x, order)
    if not (s[..., 1:] > s[..., :-1]).all():
        order = x.argsort(axis=-1, kind="stable")
    return order


def _wasserstein_indices(gen, pos_fine, wf, pos_coarse, wc, size):
    """Comonotone index pairs for clouds and weights, or row by row for
    (R, N, 1) stacks, (R, N) weights and a list of R generators."""
    keys, pos = _sorted_rows(draw(gen, "random", (size,)))
    of, oc = _rank(pos_fine), _rank(pos_coarse)
    return (gather(of, _search_sorted(gather(wf, of), keys, pos)),
            gather(oc, _search_sorted(gather(wc, oc), keys, pos)))


def wasserstein_resample(gen, pos_fine, w_fine, pos_coarse, w_coarse, size):
    """Comonotone (optimal transport) resampling for scalar states.

    One shared uniform per draw is pushed through the weighted empirical
    quantile functions of both clouds, so the resampled pairs are matched
    by rank. Only d = 1 is supported.

    Returns (idx_fine, idx_coarse).
    """
    pos_fine = np.asarray(pos_fine, dtype=float)
    pos_coarse = np.asarray(pos_coarse, dtype=float)
    if any(pos.ndim != 2 or pos.shape[1] != 1 for pos in (pos_fine, pos_coarse)):
        raise UnsupportedDimension("Wasserstein resampling is only implemented for d=1")
    wf = _check_simplex(w_fine, "fine weights")
    wc = _check_simplex(w_coarse, "coarse weights")
    if len(wf) != len(pos_fine) or len(wc) != len(pos_coarse):
        raise InvalidSimplex("each weight vector must have one entry per particle of its cloud")
    return _wasserstein_indices(gen, pos_fine, wf, pos_coarse, wc, size)


def cpf_step(model, level, gen, scheme, xf, xc, log_w_fine, log_w_coarse,
             counter=None):
    """One coupled filter step: coupled resampling, then coupled propagation
    (also for (R, N, d) stacks, (R, N) log-weights and R generators). The
    weights come from normalized_weights and are not validated again."""
    wf = normalized_weights(log_w_fine)
    wc = normalized_weights(log_w_coarse)
    n = xf.shape[-2]
    if scheme == "maximal":
        u = draw(gen, "random", (4, n))
        if xf.ndim == 2:
            idx_f, idx_c, _, _ = _maximal_row(wf, wc, u)
        else:  # each row takes its own branch
            idx_f, idx_c = map(np.array, zip(*[_maximal_row(*a)[:2] for a in zip(wf, wc, u)]))
    elif xf.shape[-1] != 1:
        raise UnsupportedDimension("Wasserstein resampling is only implemented for d=1")
    else:
        idx_f, idx_c = _wasserstein_indices(gen, xf, wf, xc, wc, n)
    return coupled_transition(model, gather(xf, idx_f), gather(xc, idx_c), level, gen, counter)


def cpf_rows(bm, data, schedule, p, level, streams, scheme, counter=None):
    """run_batches of the coupled level-l filter on each stream, fine side
    first; pairs start with one coupled transition away from x*."""
    model = bm.diffusion
    return run_batches(
        bm, data, schedule, p, level, streams,
        lambda gens, x: coupled_transition(model, x, x, level, gens, counter),
        lambda gens, xf, xc, lw_f, lw_c: cpf_step(
            model, level, gens, scheme, xf, xc, lw_f, lw_c, counter),
    )


def batch_cpf_run(bm, data, schedule, p, level, stream, scheme="wasserstein",
                  counter=None):
    """Run p+1 independent coupled batch filters over a dataset.

    The batch layout, child streams and prefix property mirror
    batch_pf_run; each batch carries a fine/coarse pair instead of one
    cloud. Returns the (n, p+1) array of increments: entry [k, q] is the
    fine combined estimate through batch q minus the coarse one.
    """
    check_scheme(scheme)
    result = cpf_rows(bm, data, schedule, p, level, [stream], scheme, counter)
    both = combined_table(result, schedule.batch_sizes(p))
    return both[:, 0] - both[:, 1]
