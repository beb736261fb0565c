"""The worker-process map behind every replicate loop."""

import os
import signal
import time

import numpy as np
import pytest

from unbiasedpf import (allocate, generate_data, make_benchmark, make_truncated_plan,
                        mlpf_estimate, unbiased_estimate)
from unbiasedpf.errors import DegenerateWeights
from unbiasedpf.observation import DataSet
from unbiasedpf import parallel
from unbiasedpf.parallel import parallel_for

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture
def deadline():
    """Fail a test, rather than hang, when the schedule it relies on breaks.
    Workers never wait on each other, but a test that gates them through a
    pipe can still wait forever."""
    def expire(signum, frame):
        raise TimeoutError("the test waited for 30 s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


def test_worker_count_is_capped(two_cpus, deadline):
    parent = os.getpid()
    r, w = os.pipe()

    def work(i):
        if os.getpid() == parent:
            os.write(w, b"x")
        else:  # a child runs an index only once the caller has run one
            os.write(w, os.read(r, 1))
        return i, os.getpid()

    try:
        out = parallel_for(work, 7, 64)
    finally:
        os.close(r)
        os.close(w)
    assert [i for i, _ in out] == list(range(7))
    pids = {pid for _, pid in out}
    assert len(pids) <= 2 and parent in pids
    assert parallel_for(lambda i: os.getpid(), 1, 64) == [parent]
    assert parallel_for(lambda i: i * i, 7, 64) == [i * i for i in range(7)]


def test_every_index_runs_once_with_more_workers_than_cores(monkeypatch, deadline):
    # a claim lost between workers would run an index twice, or never
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    r, w = os.pipe()

    def work(i):
        os.write(w, b"x")
        return i

    try:
        assert parallel_for(work, 3000, 8) == list(range(3000))
        assert len(os.read(r, 65536)) == 3000
    finally:
        os.close(r)
        os.close(w)


def test_the_worker_cap_counts_only_usable_cpus(monkeypatch):
    # two CPUs exist but the affinity mask allows one: the plain loop runs
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    assert parallel_for(lambda i: os.getpid(), 4, 2) == [os.getpid()] * 4


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


def _serial(work, count):
    """The plain loop's results, or its error."""
    try:
        return [work(i) for i in range(count)]
    except Exception as err:
        return err


def _outcome(out):
    if isinstance(out, Exception):
        return type(out), str(out), (out.level, out.p, out.time_index)
    return out


COSTS = {
    "reversed": list(range(8)),  # run order 7, 6, ..., 0
    "zero": [0] * 8,  # index order
    "huge": [1] * 6 + [10**12, 1],  # index 6 first, then index order
}


@pytest.mark.parametrize("failing", [(), (2, 6)], ids=["none", "2-and-6"])
@pytest.mark.parametrize("taker", ["caller", "child"])
@pytest.mark.parametrize("costs", list(COSTS), ids=list(COSTS))
def test_results_and_errors_equal_the_serial_loop(two_cpus, deadline, costs, taker, failing):
    def work(i):
        if i in failing:
            raise DegenerateWeights("batch filter lost all weight", level=i, p=1, time_index=i % 3)
        return i, i * i

    # `taker` runs index 2 (the lowest failing one): the other worker holds
    # its first claim, one of the first two in run order, until then. Index
    # 2 sits at the third place or later in every run order above.
    parent = os.getpid()
    held_r, held_w = os.pipe()
    gate_r, gate_w = os.pipe()

    def gated(i):
        if (os.getpid() == parent) == (taker == "caller"):
            os.write(held_w, os.read(held_r, 1))  # the other worker holds its claim
            if i == 2:
                os.write(gate_w, b"x")
        else:
            os.write(held_w, b"x")
            os.write(gate_w, os.read(gate_r, 1))
        return work(i)

    try:
        try:
            out = parallel_for(gated, 8, 2, COSTS[costs])
        except DegenerateWeights as err:
            out = err
    finally:
        for fd in (held_r, held_w, gate_r, gate_w):
            os.close(fd)
    assert _outcome(out) == _outcome(_serial(work, 8))
    if failing:
        assert _outcome(out)[1] == "batch filter lost all weight (l=2, p=1, k=2)"


def test_estimator_errors_equal_at_one_and_two_threads(two_cpus):
    # every level and every draw fails; level 0 is MLPF's cheapest, so
    # with two workers it runs last
    ou = make_benchmark("OU")
    bad = DataSet(y=[np.inf], model="OU")
    runs = [lambda t: mlpf_estimate(ou, bad, allocate(3, "nonconstant"), seed=2, threads=t),
            lambda t: unbiased_estimate(make_truncated_plan(3, 10), ou, bad, 40, seed=2,
                                        threads=t)]
    errs = []
    for run in runs:
        for threads in (1, 2):
            with pytest.raises(DegenerateWeights) as info:
                run(threads)
            errs.append(_outcome(info.value))
    assert errs[0] == errs[1] and errs[2] == errs[3]
    assert errs[0][2] == (0, 0, 0)  # mlpf level 0, batch 0, the first observation


def test_a_worker_that_cannot_report_raises(two_cpus, deadline):
    # the caller's index waits until the child has claimed the other and
    # exited, so the child always takes one
    parent = os.getpid()
    cases = [(lambda i: os._exit(3), 3),
             (lambda i: lambda: i, 1)]  # a result that cannot be pickled
    for child_work, code in cases:
        r, w = os.pipe()
        closed = []

        def work(i):
            if os.getpid() != parent:
                return child_work(i)
            os.close(w)
            closed.append(w)
            assert os.read(r, 1) == b""  # every other holder of w has exited
            return i

        try:
            with pytest.raises(ChildProcessError, match=f"exit code {code}"):
                parallel_for(work, 2, 2)
        finally:
            os.close(r)
            if not closed:
                os.close(w)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_child_killed_holding_a_claim_raises(two_cpus, deadline, monkeypatch):
    # the child dies right after it claims an index; the caller's index
    # waits until it has, so the child always claims one
    parent, read = os.getpid(), os.read
    r, w = os.pipe()
    closed = []

    def killed_in_child(fd, n):
        data = read(fd, n)
        if data and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return data

    def work(i):
        os.close(w)
        closed.append(w)
        assert read(r, 1) == b""  # every other holder of w has exited
        return i

    monkeypatch.setattr(parallel.os, "read", killed_in_child)
    try:
        with pytest.raises(ChildProcessError, match="exit code -9"):
            parallel_for(work, 2, 2)
    finally:
        os.close(r)
        if not closed:
            os.close(w)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_killed_child_among_three_workers_raises(monkeypatch, deadline):
    # the first child to claim an index takes the one token and dies; the
    # other child sleeps through its indices, and no worker waits on another
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    parent, read = os.getpid(), os.read
    token_r, token_w = os.pipe()
    died_r, died_w = os.pipe()
    os.write(token_w, b"x")
    os.set_blocking(token_r, False)
    waited = []

    def killed_once(fd, n):
        data = read(fd, n)
        if data and os.getpid() != parent:
            try:
                read(token_r, 1)
            except BlockingIOError:  # another child took the token
                return data
            os.write(died_w, b"x")
            os.kill(os.getpid(), signal.SIGKILL)
        return data

    def work(i):
        if os.getpid() == parent and not waited:
            waited.append(read(died_r, 1))  # a child has died holding a claim
        time.sleep(0.1)
        return i

    monkeypatch.setattr(parallel.os, "read", killed_once)
    try:
        with pytest.raises(ChildProcessError, match="exit code -9"):
            parallel_for(work, 9, 3)
    finally:
        for fd in (token_r, token_w, died_r, died_w):
            os.close(fd)
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
