"""Randomized level/sample-size mixtures and the debiased estimators.

A single draw picks a level l (and, for double randomization, a sample-size
index p), runs the corresponding (coupled) filter, and returns a quantity
Xi whose probability-weighted expectation telescopes to the exact filter
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
whole doubling composition collapsed into each draw.
"""

import math
from dataclasses import dataclass

import numpy as np

from .costs import cost_of_draw, single_rand_draw_cost
from .errors import CostBudgetExceeded, InvalidRate
from .pf import BatchSchedule, combined_rows, pf_rows
from .cpf import check_scheme, cpf_rows
from .parallel import check_threads, parallel_for
from .rng import ROLE_FILTER, ROLE_PLAN, ROLE_RETRY, ROLE_SINGLE, RngStream
from .sde import _MAX_BLOCK, CostCounter, Level

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
    def from_function(cls, fn, start=0, bounded=True, tol=1e-18, max_terms=4096):
        """Tabulate fn(k) for k = start, start+1, ... until terms are negligible.

        Stops once a term falls below tol times the running total (the
        point past which float64 summation cannot see further terms).
        """
        masses = []
        total = 0.0
        k = start
        while k < start + max_terms:
            v = float(fn(k))
            if v < 0 or not math.isfinite(v):
                raise InvalidRate(f"pmf term at {k} is invalid: {v!r}")
            masses.append(v)
            total += v
            if total > 0 and v < tol * total:
                break
            k += 1
        else:
            raise InvalidRate("pmf tail did not become negligible; check the rates")
        return cls(masses, start=start, bounded=bounded)

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

    def sample(self, gen, size=None):
        """Inverse-CDF sampling; one uniform block per call."""
        u = gen.random(size)
        return self.start + np.searchsorted(self.cum, u, side="right")


def _log_weighted_mass(k):
    """The summable mass 2^-k (k+1) log2(k+2)^2 of the canonical sample-size
    pmf and of the log-weighted level pmf."""
    return 2.0 ** (-k) * (k + 1.0) * math.log2(k + 2.0) ** 2


@dataclass(frozen=True)
class RandomizationPlan:
    """How levels and sample sizes are drawn, and with what weights.

    kind is "theory" (unbounded double randomization), "truncated" (bounded
    double randomization) or "single" (level randomization only). p_pmfs
    holds the sample-size pmfs, one shared table or one per level.
    """

    kind: str
    level_pmf: Pmf
    p_pmfs: tuple
    schedule: BatchSchedule
    label: str

    def pmf_p(self, l):
        """Sample-size pmf conditional on level l."""
        if not self.p_pmfs:
            raise InvalidRate("this plan does not randomize the sample size")
        if len(self.p_pmfs) == 1:
            return self.p_pmfs[0]
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

    def level_weight(self, l):
        """The debiasing weight 1 / P_L(l); vectorized over l."""
        return 1.0 / self.level_pmf.mass(l)


def default_base_size(model):
    """The conventional N_0: 10 for constant diffusion coefficient, 50 otherwise."""
    return 10 if model.constant_diffusion else 50


def make_theory_plan(beta, rho, n0, level_family="geometric"):
    """Unbounded plan with the rates the variance/cost analysis calls for.

    P_L(l) is proportional to 2^(-beta*rho*l) for rho in (0, 1) (the
    "geometric" family), or to the summable 2^-l (l+1) log2(l+2)^2 family
    when level_family="log_weighted". P_P(p) is proportional to
    2^-p (p+1) log2(p+2)^2 with N_p = n0 2^p.
    """
    if not 0 < rho < 1:
        raise InvalidRate(f"rho must lie in (0, 1), got {rho!r}")
    if not 0 < beta <= 2:
        raise InvalidRate(f"beta must lie in (0, 2], got {beta!r}")
    if level_family == "geometric":
        rate = beta * rho
        level_pmf = Pmf.from_function(lambda l: 2.0 ** (-rate * l), bounded=False)
    elif level_family == "log_weighted":
        level_pmf = Pmf.from_function(_log_weighted_mass, bounded=False)
    else:
        raise InvalidRate(f"unknown level family {level_family!r}")
    p_pmf = Pmf.from_function(_log_weighted_mass, bounded=False)
    return RandomizationPlan(
        kind="theory",
        level_pmf=level_pmf,
        p_pmfs=(p_pmf,),
        schedule=BatchSchedule(n0),
        label="unbiased",
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
    if int(l_max) != l_max or l_max < 0:
        raise InvalidRate(f"l_max must be a non-negative integer, got {l_max!r}")
    l_max = int(l_max)
    level_pmf = Pmf([2.0 ** (-1.5 * l) for l in range(l_max + 1)])
    p_pmfs = tuple(Pmf(_truncated_size_masses(l_max - l)) for l in range(l_max + 1))
    return RandomizationPlan(
        kind="truncated",
        level_pmf=level_pmf,
        p_pmfs=p_pmfs,
        schedule=BatchSchedule(n0),
        label="bias-controlled",
    )


def make_single_rand_plan(l_max, n0):
    """Level-only randomization with P_L(l) prop. to 2^-l (l+1) log2(l+2)^2.

    With l_max=None the support is unbounded (unbiased, infinite expected
    cost); an integer l_max truncates and renormalizes, which is the
    matched-cost configuration used for comparisons.
    """
    if l_max is None:
        level_pmf = Pmf.from_function(_log_weighted_mass, bounded=False)
        label = "unbiased"
    else:
        if int(l_max) != l_max or l_max < 0:
            raise InvalidRate(f"l_max must be a non-negative integer, got {l_max!r}")
        l_max = int(l_max)
        level_pmf = Pmf([_log_weighted_mass(l) for l in range(l_max + 1)])
        label = "bias-controlled"
    return RandomizationPlan(
        kind="single",
        level_pmf=level_pmf,
        p_pmfs=(),
        schedule=BatchSchedule(n0),
        label=label,
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
        pl = lp.mass(l)
        # a level-only draw is the cell (l, l) with certainty
        pp = plan.pmf_p(l) if plan.p_pmfs else Pmf([1.0], start=l)
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


def _run_cell(plan, bm, data, l, p, streams, scheme, single):
    """Run cell (l, p)'s draws on `streams` as one stacked filter, row r
    bit-identical to the draw on streams[r] alone. Returns (traces (R, n),
    each row's Euler-step count, errors of the failed rows)."""
    counter = CostCounter()
    sched, lvl = plan.schedule, Level(l)
    if not single:
        num, den, errors = (
            pf_rows(bm, data, sched, p, lvl, streams, counter) if l == 0
            else cpf_rows(bm, data, sched, p, lvl, streams, scheme, counter))

        def increments(q):
            both = combined_rows(sched.batch_sizes(p), num, den, q, errors)
            return both[:, :, 0] - (both[:, :, 1] if l else 0.0)

        prev = increments(p - 1) if p > 0 else 0.0
        return (increments(p) - prev) / plan.pmf_p(l).mass(p), counter.euler_steps, errors
    first = BatchSchedule(sched.size(l) - sched.size(l - 1)) if l else sched
    num, den, errors = pf_rows(bm, data, first, 0, lvl, [s.child(0) for s in streams], counter)
    traces = combined_rows(first.batch_sizes(0), num, den, 0, errors)[:, :, 0]
    live = [r for r in range(len(streams)) if r not in errors]
    if l and live:
        sub = [streams[r].child(1) for r in live]
        num, den, errs = cpf_rows(bm, data, sched, l - 1, lvl, sub, scheme, counter)
        both = combined_rows(sched.batch_sizes(l - 1), num, den, l - 1, errs)
        errors.update((live[j], err) for j, err in errs.items())
        a, b = first.n0 / sched.size(l), sched.size(l - 1) / sched.size(l)
        traces[live] = a * traces[live] + b * both[:, :, 0] - both[:, :, 1]
    return traces, counter.euler_steps, errors


def _one_draw(plan, bm, data, l, p, stream, scheme, single):
    """The XiSample of one draw: the one-row call of _run_cell."""
    if plan.level_pmf.mass(l) <= 0.0:
        raise InvalidRate(f"level {l} carries no mass under this plan")
    if not single and plan.pmf_p(l).mass(p) <= 0.0:
        raise InvalidRate(f"index p={p} carries no mass at level {l}")
    check_scheme(scheme)
    traces, cost, errors = _run_cell(plan, bm, data, l, p, [stream], scheme, single)
    if errors:
        raise errors[0]
    return XiSample(l, p, float(traces[0, -1]), float(plan.level_weight(l)), cost, traces[0])


def draw_xi(plan, bm, data, l, p, stream, scheme="wasserstein"):
    """Run the (coupled) filter for indices (l, p) and form Xi_{l,p}.

    For l = 0 this is the combined level-0 filter estimate through batch p
    minus the one through batch p-1 (zero for p = 0); for l >= 1 the same
    difference of combined coupled increments. The difference is divided by
    the conditional mass P_P(p | l); the level weight 1/P_L(l) is reported
    separately as `weight`.
    """
    return _one_draw(plan, bm, data, l, p, stream, scheme, single=False)


def draw_xi_single(plan, bm, data, l, stream, scheme="wasserstein"):
    """One level-only randomized draw (the full composition, no p index).

    For l = 0: the combined level-0 filter with N_0 particles. For l >= 1:
    a sample-size-weighted mix of an independent level-l filter with
    N_l - N_{l-1} particles and the fine marginal of a coupled filter with
    N_{l-1} pairs, minus that coupled filter's coarse marginal.
    """
    return _one_draw(plan, bm, data, l, l, stream, scheme, single=True)


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
    if not plan.p_pmfs:
        return ls, ls.copy()
    ps = np.zeros(m, dtype=np.int64)
    for l in np.unique(ls):
        sel = ls == l
        pmf = plan.pmf_p(int(l))
        ps[sel] = pmf.start + np.searchsorted(pmf.cum, u[sel], side="right")
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
    if int(m) != m or m < 1:
        raise InvalidRate(f"the number of draws must be a positive integer, got {m!r}")
    return int(m)


# Live batch generators per chunk: 128 ran 500 OU draws in 0.30 s, not
# 0.42 s, but kept about 0.7 MB more memory in use.
_MAX_GENERATORS = 24


def _chunk_rows(plan, l, p, d, single):
    """How many draws of cell (l, p) one chunk stacks."""
    block = (1 << l) * plan.schedule.size(p) * d
    return max(1, min(_MAX_GENERATORS // (l + 1 if single else p + 1), _MAX_BLOCK // block))


def _chunks(plan, ls, ps, d, single):
    """The draws grouped by cell (l, p) in cell order, each cell cut into
    chunks of consecutive draw indices: a list of (l, p, indices)."""
    chunks = []
    for l, p in sorted(set(zip(ls.tolist(), ps.tolist()))):
        idx = np.flatnonzero((ls == l) & (ps == p))
        rows = _chunk_rows(plan, l, p, d, single)
        chunks += [(l, p, idx[i:i + rows]) for i in range(0, len(idx), rows)]
    return chunks


def _run_randomized(plan, bm, data, m, seed, threads, scheme, mode, cost_budget):
    m = _check_draw_count(m)
    if mode not in ("strict", "permissive"):
        raise ValueError(f"unknown failure mode {mode!r}")
    check_scheme(scheme)
    threads = check_threads(threads)
    root = RngStream(seed)
    plan_gen = root.child(0, ROLE_PLAN).gen
    ls, ps = _sample_indices(plan, plan_gen, m)

    if cost_budget is not None:
        worst = max(_draw_cost(plan, int(l), int(p), data.n) for l, p in zip(ls, ps))
        if worst > cost_budget:
            raise CostBudgetExceeded(
                f"a sampled draw needs {worst} Euler steps, over the budget of {cost_budget}"
            )

    single = plan.kind == "single"
    role = ROLE_SINGLE if single else ROLE_FILTER
    chunks = _chunks(plan, ls, ps, bm.diffusion.dim, single)

    def work(c):
        # the chunk's traces, costs and retries, and each failed draw's final
        # error; failed draws retry together on their keyed retry streams
        l, p, idx = chunks[c]
        traces, costs = np.empty((len(idx), data.n)), np.empty(len(idx), dtype=np.int64)
        retries, rows = np.zeros(len(idx), dtype=np.int64), np.arange(len(idx))
        streams = [root.child(int(i) + 1, role) for i in idx]
        for attempt in range(_MAX_RETRIES + 1):
            traces[rows], costs[rows], errors = _run_cell(
                plan, bm, data, l, p, streams, scheme, single)
            retries[rows] = attempt
            failed = {int(rows[j]): err for j, err in errors.items()}
            if not errors or mode == "strict":
                break
            rows = rows[sorted(errors)]
            streams = [root.child(int(idx[r]) + 1, ROLE_RETRY, attempt + 1) for r in rows]
        return traces, costs, retries, failed

    traces, costs = np.empty((m, data.n)), np.empty(m, dtype=np.int64)
    retries, failed = np.empty(m, dtype=np.int64), {}
    chunk_costs = [len(idx) * _draw_cost(plan, l, p, data.n) for l, p, idx in chunks]
    for (_, _, idx), out in zip(chunks, parallel_for(work, len(chunks), threads, chunk_costs)):
        traces[idx], costs[idx], retries[idx], errors = out
        failed.update((int(idx[j]), err) for j, err in errors.items())
    if failed:  # the error of the lowest failing draw index
        raise failed[min(failed)]
    return _reduce_draws(plan, ls, ps, traces, costs, retries)


def unbiased_estimate(plan, bm, data, m, seed, threads=1, scheme="wasserstein",
                      mode="strict", cost_budget=None):
    """Average m independent double-randomized draws.

    Each draw i gets its own keyed stream, so the result is bit-identical
    for any number of worker processes (`threads`, an integer >= 1). In
    "strict" mode the first failed draw aborts the run; in "permissive" mode
    failed draws are retried on fresh sub-streams (up to a small cap) and
    the retry count is reported.

    cost_budget, if given, bounds the per-draw Euler-step cost up front;
    exceeding it raises CostBudgetExceeded. This is the guard rail for
    unbounded plans, whose expected cost is infinite.
    """
    if plan.kind == "single":
        raise InvalidRate("use single_randomized_estimate for level-only plans")
    return _run_randomized(plan, bm, data, m, seed, threads, scheme, mode, cost_budget)


def single_randomized_estimate(plan, bm, data, m, seed, threads=1,
                               scheme="wasserstein", mode="strict",
                               cost_budget=None):
    """Average m independent level-only randomized draws (no p index)."""
    if plan.kind != "single":
        raise InvalidRate("single_randomized_estimate needs a level-only plan")
    return _run_randomized(plan, bm, data, m, seed, threads, scheme, mode, cost_budget)


def randomized_table_mean(plan, table, m, seed, with_stderr=False):
    """The randomization machinery applied to a fixed table of values.

    table[l, p] stands in for the combined estimate at indices (l, p); each
    draw returns weight(l) * (table[l, p] - table[l, p-1]) / P_P(p | l), so
    the exact expectation is the sum over l of table[l, p_max(l)]. Used to
    check unbiasedness of the sampling/weighting alone, with no filtering
    noise in the way.

    Returns the sample mean, or (mean, stderr) when with_stderr is set.
    """
    m = _check_draw_count(m)
    table = np.asarray(table, dtype=float)
    root = RngStream(seed)
    gen = root.child(0, ROLE_PLAN).gen
    ls, ps = _sample_indices(plan, gen, m)
    v = table[ls, ps]
    prev = np.where(ps > 0, table[ls, np.maximum(ps - 1, 0)], 0.0)
    mass_p = np.empty(len(ls))
    for l in np.unique(ls):
        sel = ls == l
        mass_p[sel] = plan.pmf_p(int(l)).mass(ps[sel])
    vals = plan.level_weight(ls) * (v - prev) / mass_p
    mean = float(np.sum(vals)) / m
    if not with_stderr:
        return mean
    stderr = float(np.std(vals, ddof=1) / math.sqrt(m)) if m > 1 else math.nan
    return mean, stderr
