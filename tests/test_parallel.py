"""The worker-process map behind every replicate loop."""

import os
import signal
import time

import numpy as np
import pytest

from unbiasedpf import (BatchSchedule, allocate, cost_of_draw, generate_data, make_benchmark,
                        make_truncated_plan, mlpf_estimate, unbiased_estimate)
from unbiasedpf.parallel import parallel_for, shares

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


def test_worker_count_is_capped(two_cpus):
    parent = os.getpid()
    pids = parallel_for(lambda i: os.getpid(), 7, 64)
    # two workers, each running one contiguous share: indices 0-2 and 3-6
    assert pids == [pids[0]] * 3 + [pids[3]] * 4
    assert pids[0] != pids[3] and parent not in pids
    assert parallel_for(lambda i: os.getpid(), 1, 64) == [parent]
    assert parallel_for(lambda i: i * i, 7, 64) == [i * i for i in range(7)]


@pytest.mark.parametrize("failing", [(3, 7), (7,)])
def test_error_of_the_lowest_failing_index_is_raised(two_cpus, failing):
    def work(i):
        if i in failing:
            raise ValueError(f"index {i}")
        return i

    with pytest.raises(ValueError, match=f"index {failing[0]}"):
        parallel_for(work, 10, 2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_worker_that_cannot_report_raises(two_cpus):
    parent = os.getpid()

    def dies(i):
        if os.getpid() != parent and i == 6:
            os._exit(3)
        return i

    with pytest.raises(ChildProcessError, match="exit code 3"):
        parallel_for(dies, 8, 2)
    with pytest.raises(ChildProcessError, match="exit code 1"):
        parallel_for(lambda i: lambda: i, 4, 2)  # a result that cannot be pickled
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_interrupted_parent_kills_and_reaps_its_workers(two_cpus):
    def interrupt(signum, frame):
        raise KeyboardInterrupt

    old = signal.signal(signal.SIGALRM, interrupt)
    start = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.3)
        with pytest.raises(KeyboardInterrupt):
            parallel_for(lambda i: time.sleep(30), 2, 2)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert time.monotonic() - start < 10
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_shares_cut_at_equal_cumulative_cost():
    assert shares([1] * 7, 2) == [0, 3, 7]
    assert shares([1] * 10, 3) == [0, 3, 7, 10]
    assert shares([1, 1, 1, 1, 10], 2) == [0, 4, 5]
    assert shares([100, 1, 1], 2) == [0, 1, 3]  # nearest, not first past half
    assert shares([5, 5], 3) == [0, 1, 2]  # empty shares are dropped
    assert shares([0, 0], 2) == [0, 2]
    # the 2-way split of a 6-level MLPF: 135168 n Euler steps at most,
    # against 147456 n for equal counts
    alloc = allocate(6, "nonconstant")
    costs = [cost_of_draw(l, 0, 1, BatchSchedule(int(m))) for l, m in enumerate(alloc.sizes)]
    bounds = shares(costs, 2)
    assert bounds == [0, 4, 7]
    assert max(sum(costs[a:b]) for a, b in zip(bounds, bounds[1:])) == 135168


def test_cost_balanced_runs_equal_serial_runs(two_cpus):
    ou = make_benchmark("OU")
    data = generate_data(ou, 3, level="exact", seed=5)
    one, two = (mlpf_estimate(ou, data, allocate(3, "nonconstant"), seed=2, threads=t)
                for t in (1, 2))
    assert np.array_equal(one.level_per_time, two.level_per_time)
    assert one.total_cost == two.total_cost
    plan = make_truncated_plan(3, 10)
    one, two = (unbiased_estimate(plan, ou, data, 50, seed=2, threads=t) for t in (1, 2))
    assert all(np.array_equal(one.draws[c], two.draws[c]) for c in one.draws)
    assert np.array_equal(one.per_time, two.per_time)
    assert np.array_equal(one.per_time_stderr, two.per_time_stderr)
