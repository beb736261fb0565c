"""Bootstrap particle filters with independent-batch composition.

The filter runs at a fixed level l: particles start with one unit-time
transition away from x*, are weighted by the observation density, resampled
multinomially every step, and propagated by the level-l kernel. Weighting
happens in log space with max-subtraction, so only a full underflow of
every weight is fatal (DegenerateWeights).

Sample sizes are organized in doubling batches N_0, N_1 - N_0, ... of
mutually independent filters. The combined estimate through batch q weights
each batch's self-normalized ratio by its size, which reproduces a single
N_q-particle average in expectation while letting a randomized estimator
reuse the batches shared by consecutive prefixes.

One per-time loop, run_batches, serves this filter and the coupled one of
cpf and runs R independent filters as stacked rows: a batch is a tuple of
(R, N_q, d) arrays, one cloud here and a fine/coarse pair there. Each row
is bit-identical to its one-row run (batch_pf_run is that call). Every
size-weighted combination, for a stack or one row, is combined_rows; the
one-row calls return its values as a plain (n, p+1) array. The filter
step and the resampling helpers take stacks only, one generator per row;
multinomial_indices with one generator is the checked one-row call.
"""

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import DegenerateWeights, InvalidRate, InvalidSimplex
from .sde import draw, overflow_error, transition

_ZERO_MASS = "combined batch estimate has zero mass"


def _log_max_error(m, level=None, p=None, time_index=None):
    """The DegenerateWeights for a log-weight maximum m that is not finite:
    -inf means every weight underflowed, NaN or +inf a non-finite log-weight."""
    what = "all log-weights underflowed" if m == -math.inf else "non-finite log-weights"
    return DegenerateWeights(what, level=level, p=p, time_index=time_index)


def normalized_weights(log_w):
    """Normalize log-weights (an (R, N) array row by row) via max-subtraction.

    Raises DegenerateWeights when all weights of a row underflow or any
    log-weight is NaN/+inf.
    """
    lw = np.asarray(log_w, dtype=float)
    if lw.size == 0:
        raise ValueError("empty weight vector")
    m = lw.max(axis=-1, keepdims=True)
    if not np.isfinite(m).all():
        raise _log_max_error(float(m[~np.isfinite(m)][0]))
    w = np.exp(lw - m)
    s = w.sum(axis=-1, keepdims=True)
    if not 0.0 < s.min() < math.inf:
        raise DegenerateWeights("weight normalization failed")
    return w / s


def _check_simplex(w, what):
    """w as a float vector of probabilities, or InvalidSimplex."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise InvalidSimplex(f"{what} must be a non-empty vector")
    if (w < -1e-12).any() or not np.isfinite(w).all():
        raise InvalidSimplex(f"{what} has negative or non-finite entries")
    if abs(float(w.sum()) - 1.0) > 1e-9:
        raise InvalidSimplex(f"{what} does not sum to 1")
    return np.maximum(w, 0.0)


def _sorted_rows(u):
    """The rows of (R, size) uniforms u, each sorted, and the flat positions
    (with row offsets, as in gather) where their entries sit in u."""
    order = u.argsort(axis=-1)  # quicksort: equal keys find equal indices
    order += np.arange(0, u.size, u.shape[1])[:, None]
    return u.take(order), order


def _search_sorted(weights, keys, pos):
    """inverse_cdf(weights, u) of (R, N) weights from _sorted_rows(u) = (keys, pos)."""
    cum = weights.cumsum(axis=-1)
    cum[:, -1] = 1.0
    out = np.empty(keys.shape, dtype=np.intp)
    out.put(pos, np.concatenate([c.searchsorted(k, side="right") for c, k in zip(cum, keys)]))
    return out


def inverse_cdf(weights, u):
    """Indices drawn by pushing uniforms u through a weight vector's CDF,
    row by row for (R, N) weights and (R, size) uniforms, or for one
    weight vector and one vector of uniforms.

    Needs weights >= 0 and u in [0, 1). Then the running sum never
    decreases and its last entry, set to 1.0, exceeds every u, so
    cum[j] <= u holds on a prefix of j alone and a binary search finds the
    same index for a uniform whatever order the uniforms come in: each
    row's uniforms are searched in sorted order and scattered back.
    """
    u = np.asarray(u)
    rows = _search_sorted(np.atleast_2d(weights), *_sorted_rows(np.atleast_2d(u)))
    return rows.reshape(u.shape)


def multinomial_indices(gen, weights, size):
    """Draw `size` ancestor indices i.i.d. from normalized weights: per row
    of (R, N) weights with gen a list of R generators, as the engine calls
    it, unchecked; or from one weight vector, checked (InvalidSimplex), with
    one Generator or RngStream."""
    if isinstance(gen, (list, tuple)):
        return inverse_cdf(weights, draw(gen, "random", (size,)))
    w = _check_simplex(weights, "weights")
    return inverse_cdf(w, draw([getattr(gen, "gen", gen)], "random", (size,))[0])


def gather(x, idx):
    """Each row's x[r][idx[r]] for an (R, N, ...) stack x and (R, M) indices."""
    rows, n = x.shape[:2]
    flat = x.reshape((rows * n,) + x.shape[2:])
    return flat.take(idx + np.arange(0, rows * n, n)[:, None], axis=0)


@dataclass(frozen=True)
class BatchSchedule:
    """Doubling sample sizes N_p = n0 * 2^p and their increments."""

    n0: int

    def __post_init__(self):
        if int(self.n0) != self.n0 or self.n0 < 1:
            raise ValueError(f"base sample size must be a positive integer, got {self.n0!r}")
        object.__setattr__(self, "n0", int(self.n0))

    def size(self, p):
        """Total sample size N_p."""
        return self.n0 * (1 << p)

    def batch_sizes(self, p):
        """Sizes of the p+1 independent batches composing N_p."""
        return [self.n0] + [self.n0 * (1 << (q - 1)) for q in range(1, p + 1)]


def pf_step(model, level, gens, x, log_w, counter=None):
    """One filter step of an (R, N, d) stack: multinomial resampling by the
    (R, N) log-weights, then propagation, row r drawing from gens[r]."""
    idx = multinomial_indices(gens, normalized_weights(log_w), x.shape[1])
    return transition(model, gather(x, idx), level, gens, counter)


def combined_rows(sizes, num, den, q, errors):
    """The size-weighted ratio through batch q, sum_j N_j num_j / sum_j N_j den_j
    for j <= q, shape (R, n, sides), of run_batches' (n, sides, R, p+1) batch
    values. A row with zero combined mass, unless already in `errors`, gets
    the DegenerateWeights of its first such time there."""
    s = np.asarray(sizes[: q + 1], dtype=float)

    def dots(x):
        x = x[..., : q + 1].transpose(2, 0, 1, 3)
        if q == 0:
            return 0.0 + s[0] * x[..., 0]  # np.dot of one pair, to the bit
        # np.dot row by row: a batched product rounds differently
        rows = x.reshape(-1, q + 1)
        return np.fromiter((np.dot(s, v) for v in rows), float, len(rows)).reshape(x.shape[:-1])

    total = dots(den)
    good = (0.0 < total) & (total < math.inf)
    out = np.divide(dots(num), total, out=np.zeros(total.shape), where=good)
    for r in np.flatnonzero(~good.all(axis=(1, 2))).tolist():
        k = int(np.argwhere(~good[r])[0, 0])
        errors.setdefault(r, DegenerateWeights(_ZERO_MASS, p=q, time_index=k))
    return out


def _shared_scale(log_gs):
    """Each row's largest log-weight over the batches, as Python's max over
    the batch maxima finds it: a NaN maximum after batch 0 is passed over."""
    shift = log_gs[0].max(axis=-1)
    for m in (lg.max(axis=-1) for lg in log_gs[1:]):
        shift = np.where(m > shift, m, shift)
    return shift


def _batch_values(clouds, log_gs, phi, shift):
    """Per-batch particle means of g * phi and g, g = exp(log g - shift)."""
    sh = np.asarray(shift)[..., None]
    num = np.empty(sh.shape[:-1] + (len(clouds),))
    den = np.empty_like(num)
    for q, (x, lg) in enumerate(zip(clouds, log_gs)):
        # sum / size is np.mean's own arithmetic without its call overhead
        g = np.exp(lg - sh)
        gphi = g * np.asarray(phi(x.reshape(-1, x.shape[-1])), dtype=float).reshape(lg.shape)
        num[..., q] = gphi.sum(axis=-1) / lg.shape[-1]
        den[..., q] = g.sum(axis=-1) / lg.shape[-1]
    return num, den


def run_batches(bm, data, schedule, p, level, streams, start, step):
    """Filter p+1 independent batches for each stream, one row per stream.

    Batch q of row r draws from streams[r].child(q) and has
    schedule.batch_sizes(p)[q] particles. start(gens, x) turns x* tiled as
    x into the batch's tuple of (R, N_q, d) clouds, one or (fine, coarse).
    At each time every cloud is weighted by log_g, each side gets its batch
    values of bm.phi and, but after the last time, step(gens, *clouds,
    *log_weights) resamples and propagates each batch. A failing row leaves
    the stack; errors[row] is the error its run alone raises there. Returns
    (num, den, errors), num and den (n, sides, R, p+1); a failed row's
    entries are meaningless.
    """
    obs, model = bm.observation, bm.diffusion
    x0 = np.asarray(model.initial_state, dtype=float)
    n, count, d = data.n, len(streams), model.dim
    gens = np.array([[s.child(q).gen for s in streams] for q in range(p + 1)], dtype=object)
    live, errors = np.arange(count), {}
    batches = [[] for _ in range(p + 1)]  # batch q's row-stacked arrays

    def drop(bad, errs):
        nonlocal live, batches
        errors.update(zip(live[bad].tolist(), errs if isinstance(errs, list) else repeat(errs)))
        live = live[~bad]
        batches = [[a[~bad] for a in arrays] for arrays in batches]

    def advance(q, advanced):
        batches[q] = list(advanced)
        bad = ~np.logical_and.reduce([np.isfinite(c).all(axis=(1, 2)) for c in advanced])
        if bad.any():
            drop(bad, overflow_error(model, level, coupled=len(advanced) == 2))

    for q, size in enumerate(schedule.batch_sizes(p)):
        if len(live):
            advance(q, start(gens[q][live].tolist(), np.tile(x0, (len(live), size, 1))))
    sides = len(batches[0])
    num, den = np.zeros((2, n, sides, count, p + 1))
    for k in range(n):
        if not len(live):
            break
        for arrays in batches:  # log_g of each (R*N, d) view
            arrays[sides:] = [obs.log_g(x.reshape(-1, d), data.y[k]).reshape(x.shape[:-1])
                              for x in arrays[:sides]]
        for side in range(sides):
            shift = _shared_scale([arrays[sides + side] for arrays in batches])
            bad = ~np.isfinite(shift)
            if bad.any():
                drop(bad, [_log_max_error(m, level.l, p, k) for m in shift[bad].tolist()])
                shift = shift[~bad]
            clouds, logs = zip(*[arrays[side::sides] for arrays in batches])
            num[k, side, live], den[k, side, live] = _batch_values(clouds, logs, bm.phi, shift)
        for q in range(p + 1 if k < n - 1 else 0):
            if not len(live):
                break
            try:
                advance(q, step(gens[q][live].tolist(), *batches[q]))
            except DegenerateWeights:  # raised before the step draws: drop, step the rest
                logs = batches[q][sides:]
                bad = ~np.logical_and.reduce([np.isfinite(lw.max(axis=-1)) for lw in logs])
                lost = "batch filter lost all weight"
                drop(bad, DegenerateWeights(lost, level=level.l, p=p, time_index=k))
                if len(live):
                    advance(q, step(gens[q][live].tolist(), *batches[q]))
    return num, den, errors


def check_size_index(p):
    """p as an int, or InvalidRate unless it is a non-negative integer."""
    if int(p) != p or p < 0:
        raise InvalidRate(f"p must be a non-negative integer, got {p!r}")
    return int(p)


def combined_table(result, sizes):
    """combined_rows of a one-row run_batches result for every q, shape
    (n, sides, p+1). Raises the row's error, or else the zero-mass error of
    the lowest such q."""
    num, den, errors = result
    out = np.stack([combined_rows(sizes, num, den, q, errors)[0] for q in range(len(sizes))], -1)
    if errors:
        raise errors[0]
    return out


def pf_rows(bm, data, schedule, p, level, streams, counter=None):
    """run_batches of the level-l filter; counter counts one row's Euler steps."""
    model = bm.diffusion
    return run_batches(
        bm, data, schedule, p, level, streams,
        lambda gens, x: (transition(model, x, level, gens, counter),),
        lambda gens, x, log_w: (pf_step(model, level, gens, x, log_w, counter),),
    )


def batch_pf_run(bm, data, schedule, p, level, stream, counter=None):
    """Run p+1 independent batch filters over a dataset.

    Batch q gets its own child stream (so prefixes of a larger run are
    bit-identical to the smaller run) and size schedule.batch_sizes(p)[q];
    its particles start with one level-l transition away from x*.

    Returns an (n, p+1) array: entry [k, q] is the combined estimate
    through batch q of the filter at observation count k+1. Resampling
    after the last observation is skipped since nothing consumes it.
    """
    p = check_size_index(p)
    result = pf_rows(bm, data, schedule, p, level, [stream], counter)
    return combined_table(result, schedule.batch_sizes(p))[:, 0]
