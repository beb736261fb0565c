"""The worker-process map behind every replicate loop."""

import os
import signal
import time

import pytest

from unbiasedpf.parallel import parallel_for

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
