"""The multilevel particle filter baseline.

Fix a highest level L, run one plain level-0 filter and one coupled filter
per level 1..L, all mutually independent, and sum the level-0 estimate with
the coupled increments. The particle counts shrink with l so that variance
is balanced against cost; the two allocation regimes follow the coupled
increments' variance decay (faster when the diffusion coefficient is
constant). This is the fixed-bias estimator the randomized ones are
benchmarked against.
"""

import math
from dataclasses import dataclass

import numpy as np

from .costs import cost_of_draw
from .cpf import batch_cpf_run, check_scheme
from .errors import InvalidRate, whole_number
from .parallel import check_threads, parallel_for
from .pf import BatchSchedule, batch_pf_run
from .rng import ROLE_MLPF, RngStream
from .sde import CostCounter, Level


@dataclass(frozen=True)
class LevelAllocation:
    """Particle counts M_0..M_L for one multilevel run."""

    max_level: int
    sizes: np.ndarray
    c1: float
    regime: str


def allocate(max_level, regime, c1=1.0):
    """Balanced particle counts for levels 0..max_level.

    regime "constant" (constant diffusion coefficient) uses
    M_l = ceil(c1 * 2^(2L - 1.5 l)); regime "nonconstant" uses
    M_l = ceil(c1 * 2^(2L - l) * max(L, 1)).
    """
    if (big_l := whole_number(max_level, 0)) is None:
        raise InvalidRate(f"max_level must be a non-negative integer, got {max_level!r}")
    if not 0 < c1 < math.inf:
        raise InvalidRate(f"c1 must be positive and finite, got {c1!r}")
    if regime not in ("constant", "nonconstant"):
        raise ValueError(f"unknown allocation regime {regime!r}")
    sizes = np.empty(big_l + 1, dtype=np.int64)
    for l in range(big_l + 1):
        if regime == "constant":
            sizes[l] = math.ceil(c1 * 2.0 ** (2 * big_l - 1.5 * l))
        else:
            sizes[l] = math.ceil(c1 * 2.0 ** (2 * big_l - l) * max(big_l, 1))
    return LevelAllocation(big_l, sizes, float(c1), regime)


@dataclass(frozen=True)
class MlpfResult:
    """One multilevel run: the summed estimate and its level components."""

    allocation: LevelAllocation
    per_time: np.ndarray
    level_per_time: np.ndarray
    total_cost: int

    @property
    def value(self):
        """The estimate at the final observation time."""
        return float(self.per_time[-1])

    def level_values(self):
        """Final-time value of each level component, shape (L+1,)."""
        return self.level_per_time[:, -1].copy()


def mlpf_estimate(bm, data, alloc, seed=0, scheme="wasserstein", threads=1,
                  stream=None):
    """Run one multilevel particle filter over a dataset.

    The level components are independent (each gets its own keyed
    sub-stream, so any number of worker processes, `threads`, reproduces
    the same numbers) and are summed per observation time. Costs are
    measured by counters and equal mlpf_cost's closed form.
    """
    if stream is None:
        stream = RngStream(seed, (0, ROLE_MLPF))
    check_scheme(scheme)
    threads = check_threads(threads)
    big_l = alloc.max_level

    def work(l):
        sub = stream.child(l)
        sched = BatchSchedule(int(alloc.sizes[l]))
        counter = CostCounter()
        if l == 0:
            row = batch_pf_run(bm, data, sched, 0, Level(0), sub, counter)
        else:
            row = batch_cpf_run(bm, data, sched, 0, Level(l), sub, scheme, counter)
        return row[:, 0], counter.euler_steps

    costs = [cost_of_draw(l, 0, data.n, BatchSchedule(int(m))) for l, m in enumerate(alloc.sizes)]
    rows, steps = zip(*parallel_for(work, big_l + 1, threads, costs))
    level_per_time = np.array(rows, dtype=float)
    per_time = level_per_time.sum(axis=0)
    return MlpfResult(alloc, per_time, level_per_time, int(sum(steps)))


def mlpf_cost(alloc, n):
    """Closed-form Euler-step cost of one run; equals the measured total."""
    return sum(
        cost_of_draw(l, 0, int(n), BatchSchedule(m)) for l, m in enumerate(alloc.sizes)
    )
