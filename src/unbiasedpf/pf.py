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
cpf and runs R independent filters as stacked rows, row r through its own
batches 0..p_r: batch q is a tuple of (R_q, N_q, d) arrays, one cloud here
and a fine/coarse pair there, stacking the rows whose p_r >= q. Each row
is bit-identical to its one-row run (batch_pf_run is that call). A run
raises its first failure; randomization reruns a failed stack's rows one
at a time. Every size-weighted combination, for a stack or one row, is
combined_rows, which raises on zero mass; the one-row calls return its
values as a plain (n, p+1) array. The filter step and the resampling
helpers take stacks only, one generator per row; multinomial_indices
with one generator is the checked one-row call.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWeights, InvalidRate, InvalidSimplex, whole_number
from .sde import draw, overflow_error, transition

_ZERO_MASS = "combined batch estimate has zero mass"


def _log_max_error(m, level=None, p=None, time_index=None):
    """The DegenerateWeights for a log-weight maximum m that is not finite:
    -inf means every weight underflowed, NaN or +inf a non-finite log-weight."""
    what = "all log-weights underflowed" if m == -math.inf else "non-finite log-weights"
    return DegenerateWeights(what, level=level, p=p, time_index=time_index)


def normalized_weights(log_w, log_max=None):
    """Normalize log-weights (an (R, N) array row by row) via max-subtraction.

    Raises DegenerateWeights when all weights of a row underflow or any
    log-weight is NaN/+inf. log_max, the (R,) row maxima when the caller
    has already found them finite, skips finding and checking them again:
    a finite maximum leaves every row a sum between 1 and N.
    """
    if log_max is not None:
        w = np.exp(log_w - log_max[:, None])
        return w / w.sum(axis=-1, keepdims=True)
    lw = np.asarray(log_w, dtype=float)
    if lw.size == 0:
        raise ValueError("empty weight vector")
    m = lw.max(axis=-1, keepdims=True)
    if not np.isfinite(m).all():
        raise _log_max_error(float(m[~np.isfinite(m)][0]))
    w = np.exp(lw - m)
    return w / w.sum(axis=-1, keepdims=True)


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
        return _search_sorted(weights, *_sorted_rows(draw(gen, "random", (size,))))
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
        if (n0 := whole_number(self.n0, 1)) is None:
            raise ValueError(f"base sample size must be a positive integer, got {self.n0!r}")
        object.__setattr__(self, "n0", n0)

    def size(self, p):
        """Total sample size N_p."""
        return self.n0 * (1 << p)

    def batch_sizes(self, p):
        """Sizes of the p+1 independent batches composing N_p."""
        return [self.n0] + [self.n0 * (1 << (q - 1)) for q in range(1, p + 1)]


def pf_step(model, level, gens, x, log_w, counter=None, log_max=None):
    """One filter step of an (R, N, d) stack: multinomial resampling by the
    (R, N) log-weights, then propagation, row r drawing from gens[r].
    log_max, the rows' finite log-weight maxima, is passed to normalized_weights."""
    idx = multinomial_indices(gens, normalized_weights(log_w, log_max), x.shape[1])
    return transition(model, gather(x, idx), level, gens, counter)


def combined_rows(sizes, num, den, q, l):
    """The size-weighted ratio through batch q, sum_j N_j num_j / sum_j N_j den_j
    for j <= q, shape (R, n, sides), of run_batches' (n, sides, R, p+1) batch
    values at level l. Raises the DegenerateWeights of the first row with
    zero combined mass, at its first such time."""
    s = np.asarray(sizes[: q + 1], dtype=float)

    def dots(x):
        x = x[..., : q + 1].transpose(2, 0, 1, 3)
        if q == 0:
            return 0.0 + s[0] * x[..., 0]  # np.dot of one pair, to the bit
        # np.dot row by row: a batched product rounds differently
        rows = x.reshape(-1, q + 1)
        return np.fromiter((np.dot(s, v) for v in rows), float, len(rows)).reshape(x.shape[:-1])

    total = dots(den)
    bad = ~((0.0 < total) & (total < math.inf))
    if bad.any():
        raise DegenerateWeights(_ZERO_MASS, level=l, p=q, time_index=int(np.argwhere(bad)[0, 1]))
    return dots(num) / total


def _shared_scale(maxima):
    """Each row's largest log-weight, from the batches' per-row maxima, as
    Python's max over them finds it: a NaN maximum after batch 0 is passed
    over, and so is a -inf that pads a row past its own batches."""
    shift = maxima[0]
    for m in maxima[1:]:
        shift = np.where(m > shift, m, shift)
    return shift


def _batch_values(x, log_g, phi, shift):
    """Each row's particle means of g * phi and g over one batch's (R, N, d)
    cloud x, g = exp(log g - shift) with the rows' (R,) scales."""
    # sum / size is np.mean's own arithmetic without its call overhead
    g = np.exp(log_g - shift[:, None])
    gphi = g * np.asarray(phi(x.reshape(-1, x.shape[-1])), dtype=float).reshape(log_g.shape)
    return gphi.sum(axis=-1) / log_g.shape[-1], g.sum(axis=-1) / log_g.shape[-1]


def run_batches(bm, data, schedule, ps, level, streams, start, step):
    """Filter batches 0..ps[r] for each stream r, one row per stream.

    ps holds each row's p, non-increasing, or is one p for every row.
    Batch q of row r draws from streams[r].child(q) and has
    schedule.batch_sizes(ps[r])[q] particles, so batch q stacks the prefix
    of rows whose p >= q. start(q, gens, x) turns x* tiled as x into batch
    q's tuple of (R_q, N_q, d) clouds, one or (fine, coarse). At each time
    every cloud is weighted by log_g, each side gets its batch values of
    bm.phi and, but after the last time, step(q, gens, *clouds,
    *log_weights, *maxima) resamples and propagates batch q, maxima being
    each side's (R_q,) log-weight maxima, all finite. A row's scale is the
    largest log-weight of its own batches. Returns (num, den), each (n,
    sides, R, max(ps)+1); a row's entries past its p are meaningless. The
    first failure raises, with l, the failing row's p and the time k of the
    failed weights or overflowed states, in the order a one-row run checks:
    the start's overflow batch by batch, then at each time side 0's scale,
    side 1's, a batch of a row's own that lost all weight, and each batch's
    step and its overflow.
    """
    obs, model = bm.observation, bm.diffusion
    x0 = np.asarray(model.initial_state, dtype=float)
    n, count, d = data.n, len(streams), model.dim
    ps = np.full(count, ps) if np.ndim(ps) == 0 else np.asarray(ps)
    top = int(ps[0])
    # batch q's generators, of the rows with p >= q, a prefix of the rows
    gens = [[s.child(q).gen for s in streams[:np.count_nonzero(ps >= q)]] for q in range(top + 1)]
    past = np.arange(top + 1)[:, None, None] > ps  # (p+1, 1, R): padding past a row's p

    def checked(advanced, k):  # a batch's clouds as a list, or the first overflowed row's error
        bad = ~np.logical_and.reduce([np.isfinite(c).all(axis=(1, 2)) for c in advanced])
        if bad.any():
            raise overflow_error(model, level, len(advanced) == 2, int(ps[bad.argmax()]), k)
        return list(advanced)

    batches = [checked(start(q, g, np.tile(x0, (len(g), size, 1))), 0)
               for q, (g, size) in enumerate(zip(gens, schedule.batch_sizes(top)))]
    sides = len(batches[0])
    num, den = np.zeros((2, n, sides, count, top + 1))
    peaks = np.full((top + 1, sides, count), -np.inf)  # per-row log-weight maxima, -inf past p
    for k in range(n):
        for q, arrays in enumerate(batches):  # log_g of each (R*N, d) view
            arrays[sides:] = [obs.log_g(x.reshape(-1, d), data.y[k]).reshape(x.shape[:-1])
                              for x in arrays[:sides]]
            # the batch's per-row log-weight maxima, found once
            peaks[q, :, :len(gens[q])] = [lw.max(axis=-1) for lw in arrays[sides:]]
        for side in range(sides):
            shift = _shared_scale(peaks[:, side])
            if not np.isfinite(shift).all():  # the first row whose scale is not finite
                r = int(np.isfinite(shift).argmin())
                raise _log_max_error(float(shift[r]), level.l, int(ps[r]), k)
            for q, arrays in enumerate(batches):
                h = len(gens[q])
                num[k, side, :h, q], den[k, side, :h, q] = _batch_values(
                    arrays[side], arrays[sides + side], bm.phi, shift[:h])
        if k == n - 1:
            break
        # a batch of the row's own that cannot be resampled
        bad = ~(np.isfinite(peaks) | past).all(axis=(0, 1))
        if bad.any():
            raise DegenerateWeights("batch filter lost all weight", level=level.l,
                                    p=int(ps[bad.argmax()]), time_index=k)
        for q, g in enumerate(gens):
            batches[q] = checked(step(q, g, *batches[q], *peaks[q, :, :len(g)]), k + 1)
    return num, den


def check_size_index(p):
    """p as an int, or InvalidRate unless it is a non-negative integer."""
    if (n := whole_number(p, 0)) is None:
        raise InvalidRate(f"p must be a non-negative integer, got {p!r}")
    return n


def combined_table(result, sizes, l):
    """combined_rows of a one-row level-l run_batches result for every q,
    shape (n, sides, p+1). Raises the zero-mass error of the lowest such q."""
    num, den = result
    return np.stack([combined_rows(sizes, num, den, q, l)[0] for q in range(len(sizes))], -1)


def pf_rows(bm, data, schedule, ps, level, streams, counters=None):
    """run_batches of the level-l filter; counters[q], if given, counts one
    row's Euler steps in batch q."""
    model = bm.diffusion
    return run_batches(
        bm, data, schedule, ps, level, streams,
        lambda q, gens, x: (transition(model, x, level, gens, counters and counters[q]),),
        lambda q, gens, x, log_w, log_max: (
            pf_step(model, level, gens, x, log_w, counters and counters[q], log_max),),
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
    result = pf_rows(bm, data, schedule, p, level, [stream], [counter] * (p + 1))
    return combined_table(result, schedule.batch_sizes(p), level.l)[:, 0]
