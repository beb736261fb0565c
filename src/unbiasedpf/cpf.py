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
cpf_step and both couplings work on stacks, one generator per row;
maximal_coupling_resample and wasserstein_resample are their checked calls
for one pair of weight vectors, lifted to one row.

Two resampling couplings are provided. The maximal coupling (Jasra,
Kamatani, Law & Zhou, SIAM J. Numer. Anal. 2017) draws a shared ancestor
with the largest probability the two weight vectors allow (alpha = sum of
pointwise minima) and falls back to independent residual draws otherwise.
The Wasserstein coupling (scalar states only) pushes one shared uniform
through both weighted empirical quantile functions, which keeps resampled
pairs close in position rather than merely equal in index. Positions are
ranked by quicksort, and by a stable sort only where a cloud has tied
positions, so the rank is always the stable one.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSimplex, UnsupportedDimension
from .pf import (_check_simplex, _search_sorted, _sorted_rows, check_size_index, combined_table,
                 gather, inverse_cdf, normalized_weights, run_batches)
from .sde import coupled_transition, draw


SCHEMES = ("wasserstein", "maximal")


def check_scheme(scheme):
    """Raise ValueError unless scheme names a coupled resampling scheme."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown coupled resampling scheme {scheme!r}")


@dataclass(frozen=True)
class CouplingDiagnostics:
    """alpha is the overlap sum(min(w_f, w_c)), and matched_fraction the
    share of draws that took the shared branch of the maximal coupling."""

    alpha: float
    matched_fraction: float


def _maximal_indices(gens, wf, wc, size):
    """Maximal-coupling index pairs of (R, N) weights, row r drawing its
    (4, size) uniforms from gens[r]: (idx_f, idx_c), the overlaps alpha,
    (R, 1), and which draws matched. A row with 1 - alpha below 1e-14 takes
    the shared draw only; an alpha = 0 row never matches, and its residuals
    are wf and wc to the bit, since (w - 0) / 1.0 == w."""
    u = draw(gens, "random", (4, size))
    m = np.minimum(wf, wc)
    alpha = m.sum(axis=-1, keepdims=True)
    full = 1.0 - alpha < 1e-14
    shared = inverse_cdf(np.divide(m, alpha, out=np.zeros_like(m), where=alpha > 0.0), u[:, 1])
    resid = np.where(full, 1.0, 1.0 - alpha)
    matched = full | (u[:, 0] < alpha)
    idx_f = np.where(matched, shared, inverse_cdf(np.where(full, 0.0, wf - m) / resid, u[:, 2]))
    idx_c = np.where(matched, shared, inverse_cdf(np.where(full, 0.0, wc - m) / resid, u[:, 3]))
    return idx_f, idx_c, alpha, matched


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
    idx_f, idx_c, alpha, matched = _maximal_indices(
        [getattr(gen, "gen", gen)], wf[None], wc[None], size)
    return idx_f[0], idx_c[0], CouplingDiagnostics(float(alpha[0, 0]), float(matched.mean()))


def _rank(pos):
    """The stable argsort of (R, N, 1) positions along the particles.
    Without ties the sorting permutation is unique, so the quicksort one
    is it; a tie (-0.0 == 0.0 is one) falls back to stable."""
    x = pos[..., 0]
    order = x.argsort(axis=-1)
    s = gather(x, order)
    if not (s[:, 1:] > s[:, :-1]).all():
        order = x.argsort(axis=-1, kind="stable")
    return order


def _wasserstein_indices(gens, pos_fine, wf, pos_coarse, wc, size):
    """Comonotone index pairs of (R, N, 1) stacks and (R, N) weights, row r
    drawing its uniforms from gens[r]."""
    keys, pos = _sorted_rows(draw(gens, "random", (size,)))
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
    idx_f, idx_c = _wasserstein_indices([getattr(gen, "gen", gen)], pos_fine[None], wf[None],
                                        pos_coarse[None], wc[None], size)
    return idx_f[0], idx_c[0]


def cpf_step(model, level, gens, scheme, xf, xc, log_w_fine, log_w_coarse,
             counter=None, log_max=(None, None)):
    """One coupled filter step of (R, N, d) stacks, row r drawing from gens[r]:
    coupled resampling by the (R, N) log-weights, whose normalized_weights
    are not validated again, then coupled propagation. log_max holds the
    fine and coarse rows' finite log-weight maxima, for normalized_weights."""
    wf = normalized_weights(log_w_fine, log_max[0])
    wc = normalized_weights(log_w_coarse, log_max[1])
    n = xf.shape[1]
    if scheme == "maximal":
        idx_f, idx_c, _, _ = _maximal_indices(gens, wf, wc, n)
    elif xf.shape[-1] != 1:
        raise UnsupportedDimension("Wasserstein resampling is only implemented for d=1")
    else:
        idx_f, idx_c = _wasserstein_indices(gens, xf, wf, xc, wc, n)
    return coupled_transition(model, gather(xf, idx_f), gather(xc, idx_c), level, gens, counter)


def cpf_rows(bm, data, schedule, p, level, streams, scheme, counter=None):
    """run_batches of the coupled level-l filter on each stream, fine side
    first; pairs start with one coupled transition away from x*."""
    model = bm.diffusion
    return run_batches(
        bm, data, schedule, p, level, streams,
        lambda gens, x: coupled_transition(model, x, x, level, gens, counter),
        lambda gens, xf, xc, lw_f, lw_c, m_f, m_c: cpf_step(
            model, level, gens, scheme, xf, xc, lw_f, lw_c, counter, (m_f, m_c)),
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
    p = check_size_index(p)
    result = cpf_rows(bm, data, schedule, p, level, [stream], scheme, counter)
    both = combined_table(result, schedule.batch_sizes(p), level.l)
    return both[:, 0] - both[:, 1]
