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

One per-time loop, run_batches, serves both this filter and the coupled
filter of cpf: a batch is a tuple of plain arrays, one cloud here and a
fine/coarse pair there, and each cloud side gets its own PfBatchEstimate
per observation time.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWeights
from .sde import transition


def _check_log_max(m, level=None, p=None, time_index=None):
    """Raise DegenerateWeights unless the log-weight maximum m is finite.

    NaN or +inf means some log-weight is non-finite; -inf means every
    weight underflowed. The error carries whatever context is passed in.
    """
    if math.isnan(m) or m == math.inf:
        raise DegenerateWeights(
            "non-finite log-weights", level=level, p=p, time_index=time_index
        )
    if m == -math.inf:
        raise DegenerateWeights(
            "all log-weights underflowed", level=level, p=p, time_index=time_index
        )


def normalized_weights(log_w, level=None, p=None, time_index=None):
    """Normalize log-weights to a probability vector, via max-subtraction.

    Raises DegenerateWeights (with whatever context was passed in) when all
    weights underflow or any log-weight is NaN/+inf.
    """
    lw = np.asarray(log_w, dtype=float)
    if lw.size == 0:
        raise ValueError("empty weight vector")
    m = lw.max()
    _check_log_max(m, level, p, time_index)
    w = np.exp(lw - m)
    s = w.sum()
    if not math.isfinite(s) or s <= 0.0:
        raise DegenerateWeights(
            "weight normalization failed", level=level, p=p, time_index=time_index
        )
    return w / s


def inverse_cdf(weights, u):
    """Indices drawn by pushing uniforms u through a weight vector's CDF."""
    cum = np.cumsum(weights)
    cum[-1] = 1.0
    return np.searchsorted(cum, u, side="right")


def multinomial_indices(gen, weights, size):
    """Draw `size` ancestor indices i.i.d. from a normalized weight vector."""
    return inverse_cdf(weights, gen.random(size))


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


def pf_step(model, level, gen, x, log_w, counter=None):
    """One filter step: multinomial resampling by log_w, then propagate."""
    idx = multinomial_indices(gen, normalized_weights(log_w), x.shape[0])
    return transition(model, x[idx], level, gen, counter)


@dataclass(frozen=True)
class PfBatchEstimate:
    """Per-batch numerators and denominators of a filter functional.

    num[q] and den[q] are the batch-q particle means of exp(log g - scale)
    times phi and of exp(log g - scale); `scale` is one shared offset, so
    ratios across batches are consistent. combined(q) is the size-weighted
    ratio through batch q.
    """

    batch_sizes: np.ndarray
    num: np.ndarray
    den: np.ndarray
    scale: float = 0.0
    time_index: int = 0

    def combined(self, q=None):
        if q is None:
            q = len(self.num) - 1
        sizes = np.asarray(self.batch_sizes[: q + 1], dtype=float)
        num = float(np.dot(sizes, self.num[: q + 1]))
        den = float(np.dot(sizes, self.den[: q + 1]))
        if den <= 0.0 or not np.isfinite(den):
            raise DegenerateWeights(
                "combined batch estimate has zero mass",
                p=q,
                time_index=self.time_index,
            )
        return num / den


def batch_estimate(sizes, clouds, log_gs, phi, level=None, p=None, time_index=0):
    """The PfBatchEstimate of phi over one cloud per batch.

    All batches share one scale, the largest log-weight, which is checked
    by _check_log_max with the given (l, p, k) context.
    """
    shift = max(float(lg.max()) for lg in log_gs)
    _check_log_max(shift, level, p, time_index)
    num = np.empty(len(clouds))
    den = np.empty(len(clouds))
    for q, (x, lg) in enumerate(zip(clouds, log_gs)):
        # sum / size is np.mean's own arithmetic without its call overhead
        g = np.exp(lg - shift)
        gphi = g * np.asarray(phi(x), dtype=float)
        num[q] = gphi.sum() / gphi.size
        den[q] = g.sum() / g.size
    return PfBatchEstimate(
        np.asarray(sizes), num, den, scale=shift, time_index=time_index
    )


def run_batches(bm, data, p, level, batches, step):
    """Filter independent batches over a dataset, one time at a time.

    Each batch is a tuple of (N_q, d) clouds, the same number for every
    batch. At each observation time every cloud is weighted by log_g, each
    cloud side gets a batch_estimate of the benchmark's test functional
    bm.phi across the batches, and, except after the last observation,
    step(q, *clouds, *log_weights) resamples and propagates batch q into
    its next tuple of clouds.

    Returns one list per observation time with one PfBatchEstimate per
    cloud side.
    """
    obs = bm.observation
    sizes = [clouds[0].shape[0] for clouds in batches]
    out = []
    n = data.n
    for k in range(n):
        y = data.y[k]
        sides = list(zip(*batches))
        logs = [[obs.log_g(x, y) for x in side] for side in sides]
        out.append([
            batch_estimate(sizes, side, lg, bm.phi, level.l, p, k)
            for side, lg in zip(sides, logs)
        ])
        if k < n - 1:
            try:
                batches = [
                    step(q, *clouds, *lw)
                    for q, (clouds, lw) in enumerate(zip(batches, zip(*logs)))
                ]
            except DegenerateWeights as err:
                raise DegenerateWeights(
                    "batch filter lost all weight", level=level.l, p=p, time_index=k
                ) from err
    return out


def batch_pf_run(bm, data, schedule, p, level, stream, counter=None):
    """Run p+1 independent batch filters over a dataset.

    Batch q gets its own child stream (so prefixes of a larger run are
    bit-identical to the smaller run) and size schedule.batch_sizes(p)[q];
    its particles start with one level-l transition away from x*.

    Returns a list with one PfBatchEstimate per observation time; entry k
    estimates the filter at observation count k+1. Resampling after the
    last observation is skipped since nothing consumes it.
    """
    model = bm.diffusion
    x0 = np.asarray(model.initial_state, dtype=float)
    gens = [stream.child(q).gen for q in range(p + 1)]
    batches = [
        (transition(model, np.tile(x0, (m, 1)), level, gen, counter),)
        for gen, m in zip(gens, schedule.batch_sizes(p))
    ]

    def step(q, x, log_w):
        return (pf_step(model, level, gens[q], x, log_w, counter),)

    return [est for (est,) in run_batches(bm, data, p, level, batches, step)]
