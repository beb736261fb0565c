"""Randomized level/sample-size mixtures and the debiased estimators.

A single draw picks a level l and a sample-size index p, the cell (l, p),
runs the corresponding (coupled) filter, and returns a quantity Xi whose
probability-weighted expectation telescopes to the exact filter
functional. Averaging M independent draws of weight(l) * Xi then estimates
the filter without discretization or particle bias when the supports are
unbounded, and with explicitly controlled bias when they are truncated.

Three plan families are provided. Theory plans have unbounded supports:
geometric level probabilities 2^(-beta*rho*l) (beta is the coupled filter's
variance decay rate, 1 for constant diffusion coefficient, 1/2 otherwise)
and sample-size probabilities proportional to 2^(-p) (p+1) log2(p+2)^2.
Their estimator is unbiased but has infinite expected cost per draw, the
price of sub-canonical convergence. Truncated plans bound both supports
(the practical choice: bias decays geometrically in l_max while cost stays
finite). Single-randomization plans randomize the level only, with the
whole doubling composition collapsed into each draw: their sample-size pmf
at level l is the point mass at p = l, so a level-only draw is the cell
(l, l), and `draw_xi` and `unbiased_estimate` run every plan.

`unbiased_estimate` runs the draws of one level as stacked filters: a
draw in cell (l, p) runs batches 0..p, and batch q has the same size
whatever p is, so batch q of a chunk stacks its draws with p >= q. Each
draw keeps its own streams and arithmetic and equals `draw_xi` on its
stream, bit for bit. A stack that fails reruns each of its draws alone,
so a failed draw raises the error its `draw_xi` raises.
"""

import math
from dataclasses import dataclass

import numpy as np

from .costs import cost_of_draw, single_rand_draw_cost
from .errors import (CostBudgetExceeded, DegenerateWeights, InvalidRate, NumericalOverflow,
                     whole_number)
from .pf import BatchSchedule, combined_rows, pf_rows
from .cpf import check_scheme, cpf_rows
from .parallel import check_threads, parallel_for
from .rng import ROLE_FILTER, ROLE_PLAN, ROLE_RETRY, ROLE_SINGLE, RngStream
from .sde import _MAX_BLOCK, CostCounter, Level, _step_groups

_MAX_RETRIES = 20


class Pmf:
    """A probability mass function on consecutive integers start, start+1, ...

    Masses are normalized on construction; `bounded` records whether the
    table is the true support or a machine-complete realization of an
    unbounded pmf (extended until further terms cannot change float sums).
    """

    __slots__ = ("p", "cum", "start", "bounded")

    def __init__(self, masses, start=0, bounded=True):
        p = np.asarray(masses, dtype=float).reshape(-1)
        if p.size == 0:
            raise InvalidRate("a pmf needs at least one mass")
        if not np.isfinite(p).all() or np.any(p < 0):
            raise InvalidRate("pmf masses must be finite and non-negative")
        total = float(p.sum())
        if total <= 0:
            raise InvalidRate("pmf masses must have positive total")
        self.p = p / total
        self.cum = np.cumsum(self.p)
        self.cum[-1] = 1.0
        self.start = int(start)
        self.bounded = bool(bounded)

    @classmethod
    def from_function(cls, fn):
        """The unbounded pmf proportional to fn(k), k = 0, 1, ..., tabulated
        until a term falls below 1e-18 times the running total (past which
        float64 summation cannot see further terms)."""
        masses = []
        total = 0.0
        for k in range(4096):
            v = float(fn(k))
            if v < 0 or not math.isfinite(v):
                raise InvalidRate(f"pmf term at {k} is invalid: {v!r}")
            masses.append(v)
            total += v
            if total > 0 and v < 1e-18 * total:
                break
        else:
            raise InvalidRate("pmf tail did not become negligible; check the rates")
        return cls(masses, bounded=False)

    def __len__(self):
        return len(self.p)

    @property
    def stop(self):
        """Largest index carrying mass in the table."""
        return self.start + len(self.p) - 1

    def mass(self, k):
        """Probability of k; vectorized, zero outside the table."""
        k = np.asarray(k)
        idx = k - self.start
        inside = (idx >= 0) & (idx < len(self.p))
        out = np.where(inside, self.p[np.clip(idx, 0, len(self.p) - 1)], 0.0)
        return out if k.ndim else float(out)

    def index(self, u):
        """The inverse CDF: the index that each uniform u in [0, 1) selects."""
        return self.start + np.searchsorted(self.cum, u, side="right")

    def sample(self, gen, size):
        """Inverse-CDF sampling; one uniform block per call."""
        return self.index(gen.random(size))


def _log_weighted_mass(k):
    """The summable mass 2^-k (k+1) log2(k+2)^2 of the canonical sample-size
    pmf and of the level-only plans' level pmf."""
    return 2.0 ** (-k) * (k + 1.0) * math.log2(k + 2.0) ** 2


@dataclass(frozen=True)
class RandomizationPlan:
    """How levels and sample sizes are drawn, and with what weights.

    kind is "theory" (unbounded double randomization), "truncated" (bounded
    double randomization) or "single" (level randomization only). p_pmfs
    holds one sample-size pmf per level of level_pmf's table; a level-only
    plan's pmf at level l is the point mass at p = l.
    """

    kind: str
    level_pmf: Pmf
    p_pmfs: tuple
    schedule: BatchSchedule

    def pmf_p(self, l):
        """Sample-size pmf conditional on level l."""
        return self.p_pmfs[l - self.level_pmf.start]

    def p_max(self, l):
        """Largest sample-size index drawable at level l (None if unbounded)."""
        pmf = self.pmf_p(l)
        return pmf.stop if pmf.bounded else None

    @property
    def unbounded(self):
        if not self.level_pmf.bounded:
            return True
        return any(not q.bounded for q in self.p_pmfs)

    @property
    def label(self):
        """The estimate's label: "unbiased" for unbounded plans, otherwise
        "bias-controlled"."""
        return "unbiased" if self.unbounded else "bias-controlled"

    def level_weight(self, l):
        """The debiasing weight 1 / P_L(l); vectorized over l."""
        return 1.0 / self.level_pmf.mass(l)


def default_base_size(model):
    """The conventional N_0: 10 for constant diffusion coefficient, 50 otherwise."""
    return 10 if model.constant_diffusion else 50


def make_theory_plan(beta, rho, n0):
    """Unbounded plan with the rates the variance/cost analysis calls for.

    P_L(l) is proportional to 2^(-beta*rho*l) for rho in (0, 1), and P_P(p)
    to 2^-p (p+1) log2(p+2)^2 with N_p = n0 2^p.
    """
    if not 0 < rho < 1:
        raise InvalidRate(f"rho must lie in (0, 1), got {rho!r}")
    if not 0 < beta <= 2:
        raise InvalidRate(f"beta must lie in (0, 2], got {beta!r}")
    rate = beta * rho
    level_pmf = Pmf.from_function(lambda l: 2.0 ** (-rate * l))
    p_pmf = Pmf.from_function(_log_weighted_mass)
    return RandomizationPlan(
        kind="theory",
        level_pmf=level_pmf,
        p_pmfs=(p_pmf,) * len(level_pmf),
        schedule=BatchSchedule(n0),
    )


def _truncated_size_masses(p_max):
    masses = []
    for p in range(p_max + 1):
        if p <= 4:
            masses.append(2.0 ** (4 - p))
        else:
            masses.append(2.0 ** (-p) * p * math.log2(p) ** 2)
    return masses


def make_truncated_plan(l_max, n0):
    """Bounded plan: P_L(l) prop. to 2^(-1.5 l) on {0..l_max}, and given l,
    P_P supported on {0..l_max - l} with the 2^(4-p) head / log-weighted tail.

    The resulting estimator is bias-controlled rather than unbiased: its
    residual bias is that of the level-l_max filter with N_{l_max - l}-style
    sample sizes, decaying geometrically in l_max.
    """
    if (top := whole_number(l_max, 0)) is None:
        raise InvalidRate(f"l_max must be a non-negative integer, got {l_max!r}")
    level_pmf = Pmf([2.0 ** (-1.5 * l) for l in range(top + 1)])
    p_pmfs = tuple(Pmf(_truncated_size_masses(top - l)) for l in range(top + 1))
    return RandomizationPlan(
        kind="truncated",
        level_pmf=level_pmf,
        p_pmfs=p_pmfs,
        schedule=BatchSchedule(n0),
    )


def make_single_rand_plan(l_max, n0):
    """Level-only randomization with P_L(l) prop. to 2^-l (l+1) log2(l+2)^2.

    With l_max=None the support is unbounded (unbiased, infinite expected
    cost); an integer l_max truncates and renormalizes, which is the
    matched-cost configuration used for comparisons.
    """
    if l_max is None:
        level_pmf = Pmf.from_function(_log_weighted_mass)
    else:
        if (top := whole_number(l_max, 0)) is None:
            raise InvalidRate(f"l_max must be a non-negative integer, got {l_max!r}")
        level_pmf = Pmf([_log_weighted_mass(l) for l in range(top + 1)])
    return RandomizationPlan(
        kind="single",
        level_pmf=level_pmf,
        p_pmfs=tuple(Pmf([1.0], start=l) for l in range(len(level_pmf))),
        schedule=BatchSchedule(n0),
    )


def _draw_cost(plan, l, p, n):
    """Euler-step cost of the plan's draw at (l, p); level-only draws have p = l."""
    if plan.kind == "single":
        return single_rand_draw_cost(l, n, plan.schedule)
    return cost_of_draw(l, p, n, plan.schedule)


def expected_draw_cost(plan, n):
    """Expected Euler-step cost of one draw over n observations.

    Finite (an exact sum) for bounded plans. Every unbounded family here
    has a divergent expected cost (for theory plans E[N_p] alone already
    diverges), so unbounded plans return inf.
    """
    if plan.unbounded:
        return math.inf
    lp = plan.level_pmf
    total = 0.0
    for l in range(lp.start, lp.stop + 1):
        pl, pp = lp.mass(l), plan.pmf_p(l)
        for p in range(pp.start, pp.stop + 1):
            total += pl * pp.mass(p) * _draw_cost(plan, l, p, n)
    return total


@dataclass(frozen=True)
class XiSample:
    """One randomized draw: indices, the Xi value, weight, cost, and the
    per-observation-time trace of Xi (trace[-1] == xi)."""

    l: int
    p: int
    xi: float
    weight: float
    cost: int
    trace: np.ndarray


def _xi(plan, l, p, increment):
    """Xi_{l,p} = (increment(p) - increment(p-1)) / P_P(p | l), increment(q)
    being the level-l increment through batch q and increment(-1) = 0."""
    prev = increment(p - 1) if p > 0 else 0.0
    return (increment(p) - prev) / plan.pmf_p(l).mass(p)


def _runs(ps):
    """The runs of equal p in non-increasing ps: a list of (p, slice)."""
    cut = [0, *(np.flatnonzero(np.diff(ps)) + 1).tolist(), len(ps)]
    return [(int(ps[a]), slice(a, b)) for a, b in zip(cut, cut[1:])]


def _run_cell(plan, bm, data, l, ps, streams, scheme):
    """Run level l's draws on `streams`, row r in cell (l, ps[r]) with ps
    non-increasing, as one stacked filter. If the stack fails, each row
    reruns alone, so every row is the draw on streams[r] run alone, bit
    for bit, its failure included. Returns (traces (R, n), each row's
    Euler-step count, {row: error} of the failed rows, without tracebacks);
    a failed row's trace and count are meaningless."""
    ps = np.asarray(ps)
    sched, lvl = plan.schedule, Level(l)
    # one counter per batch; a row's cost is the count of its own batches
    counters = [CostCounter() for _ in range(int(ps[0]) + 1)]
    try:
        if plan.kind != "single":
            num, den = (pf_rows(bm, data, sched, ps, lvl, streams, counters) if l == 0
                        else cpf_rows(bm, data, sched, ps, lvl, streams, scheme, counters))
            traces = np.empty((len(streams), data.n))
            for p, run in _runs(ps):  # Xi of each run of equal p

                def increment(q):
                    both = combined_rows(sched.batch_sizes(p), num[:, :, run], den[:, :, run],
                                         q, l)
                    return both[:, :, 0] - (both[:, :, 1] if l else 0.0)

                traces[run] = _xi(plan, l, p, increment)
        else:  # p = l: the first filter's one batch, then the coupled filter's l
            first = BatchSchedule(sched.size(l) - sched.size(l - 1)) if l else sched
            num, den = pf_rows(bm, data, first, 0, lvl, [s.child(0) for s in streams],
                               counters[:1])
            traces = combined_rows(first.batch_sizes(0), num, den, 0, l)[:, :, 0]
            if l:
                sub = [s.child(1) for s in streams]
                num, den = cpf_rows(bm, data, sched, l - 1, lvl, sub, scheme, counters[1:])
                both = combined_rows(sched.batch_sizes(l - 1), num, den, l - 1, l)
                a, b = first.n0 / sched.size(l), sched.size(l - 1) / sched.size(l)
                traces = a * traces + b * both[:, :, 0] - both[:, :, 1]
        return traces, np.cumsum([c.euler_steps for c in counters])[ps], {}
    except (DegenerateWeights, NumericalOverflow) as err:
        if len(streams) == 1:  # a kept traceback would pin the run's arrays
            return np.full((1, data.n), np.nan), np.zeros(1, int), {0: err.with_traceback(None)}
    # after the except block, which frees the failed stack's arrays
    rows = [_run_cell(plan, bm, data, l, ps[r:r + 1], [s], scheme) for r, s in enumerate(streams)]
    return (np.concatenate([t for t, _, _ in rows]), np.concatenate([c for _, c, _ in rows]),
            {r: e[0] for r, (_, _, e) in enumerate(rows) if e})


def draw_xi(plan, bm, data, l, p, stream, scheme="wasserstein"):
    """Run the (coupled) filter for indices (l, p) and form Xi_{l,p}: the
    one-row call of the engine behind unbiased_estimate.

    For l = 0 this is the combined level-0 filter estimate through batch p
    minus the one through batch p-1 (zero for p = 0); for l >= 1 the same
    difference of combined coupled increments. The difference is divided by
    the conditional mass P_P(p | l); the level weight 1/P_L(l) is reported
    separately as `weight`.

    A level-only plan's draw is the cell (l, l), the full composition: for
    l = 0 the combined level-0 filter with N_0 particles; for l >= 1 a
    sample-size-weighted mix of an independent level-l filter with
    N_l - N_{l-1} particles and the fine marginal of a coupled filter with
    N_{l-1} pairs, minus that coupled filter's coarse marginal.
    """
    indices = whole_number(l, -math.inf), whole_number(p, -math.inf)
    if None in indices:
        raise InvalidRate(f"the indices must be integers, got l={l!r}, p={p!r}")
    l, p = indices
    if plan.level_pmf.mass(l) <= 0.0:
        raise InvalidRate(f"level {l} carries no mass under this plan")
    if plan.pmf_p(l).mass(p) <= 0.0:
        raise InvalidRate(f"index p={p} carries no mass at level {l}")
    check_scheme(scheme)
    traces, costs, errors = _run_cell(plan, bm, data, l, [p], [stream], scheme)
    if errors:
        raise errors[0]
    return XiSample(l, p, float(traces[0, -1]), float(plan.level_weight(l)), int(costs[0]),
                    traces[0])


@dataclass(frozen=True)
class UnbiasedEstimate:
    """The reduction of M randomized draws.

    value is mean(weight * xi) over draws (so it can be recomputed from the
    stored columns); per_time holds the same reduction of the whole traces.
    label says whether the underlying plan was unbiased or bias-controlled.
    """

    value: float
    stderr: float
    variance: float
    m: int
    total_cost: int
    per_time: np.ndarray
    per_time_stderr: np.ndarray
    draws: dict
    label: str = "unbiased"
    retries: int = 0

    def summary_rows(self):
        """(k, estimate, stderr) rows, k = 1..n, for the summary CSV."""
        return [
            (k + 1, float(v), float(s))
            for k, (v, s) in enumerate(zip(self.per_time, self.per_time_stderr))
        ]


def _sample_indices(plan, gen, m):
    """Vectorized (l, p) sampling with a fixed stream-consumption layout."""
    ls = plan.level_pmf.sample(gen, m)
    u = gen.random(m)
    ps = np.zeros(m, dtype=np.int64)
    for l in np.unique(ls):
        sel = ls == l
        ps[sel] = plan.pmf_p(int(l)).index(u[sel])
    return ls, ps


def _reduce_draws(plan, ls, ps, traces, costs, retries):
    m = len(ls)
    xis = traces[:, -1].copy()
    weights = plan.level_weight(ls)
    wx = weights * xis
    w_traces = weights[:, None] * traces
    if m > 1:
        variance = float(np.var(wx, ddof=1))
        per_time_stderr = np.sqrt(np.var(w_traces, axis=0, ddof=1) / m)
    else:
        variance, per_time_stderr = math.nan, np.full(traces.shape[1], math.nan)
    return UnbiasedEstimate(
        value=float(np.sum(wx)) / m, stderr=math.sqrt(variance / m), variance=variance,
        m=m, total_cost=int(costs.sum()), per_time=np.sum(w_traces, axis=0) / m,
        per_time_stderr=per_time_stderr, label=plan.label, retries=int(retries.sum()),
        draws={"l": ls, "p": ps, "xi": xis, "weight": weights, "cost": costs},
    )


def _check_draw_count(m):
    """Return m as an int; raise InvalidRate unless it is a positive integer."""
    if (n := whole_number(m, 1)) is None:
        raise InvalidRate(f"the number of draws must be a positive integer, got {m!r}")
    return n


# A chunk stacks at most _MAX_GENERATORS live batch generators, and its
# rows' largest generator calls fill at most _MAX_CHUNK_BLOCK doubles
# together, the bound that 24 generators of at most sde._MAX_BLOCK doubles
# each kept before. 64 rather than 24 cut a 500-draw OU round from a
# median of 56 chunks to 32 and ran it about 1.38x as fast; each live
# generator holds about 1 KiB, so a larger cap trades peak memory for
# fewer chunks.
_MAX_GENERATORS = 64
_MAX_CHUNK_BLOCK = 24 * _MAX_BLOCK


def _levels(ls, ps):
    """The draws grouped by level in level order: a list of (l, indices),
    each level's draw indices by p descending, then ascending."""
    order = np.lexsort((-ps, ls))  # stable: by l, then p descending, then draw index
    cut = np.flatnonzero(np.diff(ls[order])) + 1
    return [(int(ls[idx[0]]), idx) for idx in np.split(order, cut)]


def _chunks(levels, ps, schedule, d):
    """Each level of _levels cut into chunks of consecutive rows: a list of
    (l, indices). A chunk takes rows while their live batch generators,
    sum(p + 1), stay within _MAX_GENERATORS and their largest generator
    calls within _MAX_CHUNK_BLOCK doubles; a row over a bound alone is a
    chunk of its own. A row's block is its largest generator call, at its
    largest batch; a level-only draw (l, l) has no larger batch than
    schedule.batch_sizes(l)[-1] either."""
    chunks = []
    for l, idx in levels:
        row_ps = ps[idx].tolist()
        loads = {}  # p: (generators, block) of one row
        for p in set(row_ps):
            size = schedule.batch_sizes(p)[-1]
            loads[p] = p + 1, _step_groups(1 << l, size, d)[0] * size * d
        first, gens, block = 0, 0, 0
        for i, p in enumerate(row_ps):
            g, b = loads[p]
            if i > first and (gens + g > _MAX_GENERATORS or block + b > _MAX_CHUNK_BLOCK):
                chunks.append((l, idx[first:i]))
                first, gens, block = i, 0, 0
            gens, block = gens + g, block + b
        chunks.append((l, idx[first:]))
    return chunks


def unbiased_estimate(plan, bm, data, m, seed, threads=1, scheme="wasserstein",
                      mode="strict", cost_budget=None):
    """Average m independent randomized draws of any plan.

    Each draw i gets its own keyed stream, so the result is bit-identical
    for any number of worker processes (`threads`, an integer >= 1). In
    "strict" mode the first failed draw aborts the run; in "permissive" mode
    failed draws are retried on fresh sub-streams (up to a small cap) and
    the retry count is reported.

    cost_budget, if given, is a whole number >= 0 that bounds the per-draw
    Euler-step cost up front; exceeding it raises CostBudgetExceeded. This
    is the guard rail for unbounded plans, whose expected cost is infinite.
    """
    m = _check_draw_count(m)
    if mode not in ("strict", "permissive"):
        raise ValueError(f"unknown failure mode {mode!r}")
    check_scheme(scheme)
    threads = check_threads(threads)
    if cost_budget is not None and whole_number(cost_budget, 0) is None:
        raise InvalidRate(f"cost_budget must be a non-negative integer, got {cost_budget!r}")
    root = RngStream(seed)
    plan_gen = root.child(0, ROLE_PLAN).gen
    ls, ps = _sample_indices(plan, plan_gen, m)
    cell_costs = {(l, p): _draw_cost(plan, l, p, data.n)
                  for l, p in set(zip(ls.tolist(), ps.tolist()))}

    if cost_budget is not None:
        worst = max(cell_costs.values())
        if worst > cost_budget:
            raise CostBudgetExceeded(
                f"a sampled draw needs {worst} Euler steps, over the budget of {cost_budget}"
            )

    role = ROLE_SINGLE if plan.kind == "single" else ROLE_FILTER
    chunks = _chunks(_levels(ls, ps), ps, plan.schedule, bm.diffusion.dim)

    def work(c):
        # the chunk's traces, costs and retries, and each failed draw's final
        # error; failed draws retry together on their keyed retry streams
        l, idx = chunks[c]
        traces, costs = np.empty((len(idx), data.n)), np.empty(len(idx), dtype=np.int64)
        retries, rows = np.zeros(len(idx), dtype=np.int64), np.arange(len(idx))
        streams = [root.child(int(i) + 1, role) for i in idx]
        for attempt in range(_MAX_RETRIES + 1):
            traces[rows], costs[rows], errors = _run_cell(
                plan, bm, data, l, ps[idx[rows]], streams, scheme)
            retries[rows] = attempt
            failed = {int(rows[j]): err for j, err in errors.items()}
            if not errors or mode == "strict":
                break
            rows = rows[sorted(errors)]
            streams = [root.child(int(idx[r]) + 1, ROLE_RETRY, attempt + 1) for r in rows]
        return traces, costs, retries, failed

    traces, costs = np.empty((m, data.n)), np.empty(m, dtype=np.int64)
    retries, failed = np.empty(m, dtype=np.int64), {}
    chunk_costs = [sum(cell_costs[l, p] for p in ps[idx].tolist()) for l, idx in chunks]
    for (_, idx), out in zip(chunks, parallel_for(work, len(chunks), threads, chunk_costs)):
        traces[idx], costs[idx], retries[idx], errors = out
        failed.update((int(idx[j]), err) for j, err in errors.items())
    if failed:  # the error of the lowest failing draw index
        raise failed[min(failed)]
    return _reduce_draws(plan, ls, ps, traces, costs, retries)


def randomized_table_mean(plan, table, m, seed):
    """The randomization machinery applied to a fixed table of values.

    table[l, p] stands in for the level-l increment through batch p: each
    draw's Xi is _xi's of the table row, reduced as unbiased_estimate
    reduces draws, so the exact expectation is the sum over l of
    table[l, p_max(l)]. This checks the sampling, Xi and weighting alone,
    with no filtering noise. Level-only plans have no table of sample sizes.
    Returns the sample mean and its standard error.
    """
    m = _check_draw_count(m)
    if plan.kind == "single":
        raise InvalidRate("this plan does not randomize the sample size")
    table = np.asarray(table, dtype=float)
    gen = RngStream(seed).child(0, ROLE_PLAN).gen
    ls, ps = _sample_indices(plan, gen, m)
    traces = np.empty((m, 1))
    for l, idx in _levels(ls, ps):
        for p, run in _runs(ps[idx]):
            traces[idx[run]] = _xi(plan, l, p, lambda q: table[l, q])
    zeros = np.zeros(m, dtype=np.int64)
    est = _reduce_draws(plan, ls, ps, traces, zeros, zeros)
    return est.value, est.stderr
