"""Worker processes for independent replicates.

Every replicate loop in the package (randomized draws, MLPF levels, and the
CLI's reference, run-mlpf and sweep-variance repeats) is a parallel_for map.
Each index draws from its own keyed stream, so the results do not depend on
the worker count or on scheduling.

A draw is mostly interpreted Python, so threads would only contend for the
interpreter lock. parallel_for instead forks its workers after `work`
exists: each child inherits the closure, the model and the data, so nothing
is pickled on the way in. Child c runs a fixed contiguous share of the
indices, cut at equal cumulative cost when the caller gives each index's
cost, and sends back, through a pipe, the pickled list of its results and
the first error it hit. Children leave through os._exit, so they never
flush the parent's stdio buffers or run its exit handlers.
"""

import bisect
import itertools
import numbers
import os
import pickle
import signal
import sys

from .errors import InvalidRate


def check_threads(threads):
    """Return `threads` as an int; raise InvalidRate unless it is an integer >= 1."""
    if not isinstance(threads, numbers.Integral) or threads < 1:
        raise InvalidRate(f"threads must be an integer >= 1, got {threads!r}")
    return int(threads)


def shares(costs, workers):
    """Bounds of contiguous index shares, cut where the cumulative cost is
    nearest to c/workers of the total (the lower index on a tie); empty
    shares are dropped."""
    cum = list(itertools.accumulate(costs, initial=0))
    bounds = {0, len(costs)}
    for c in range(1, workers):
        target = cum[-1] * c / workers
        i = bisect.bisect_left(cum, target)
        bounds.add(i - 1 if i and target - cum[i - 1] <= cum[i] - target else i)
    return sorted(bounds)


def parallel_for(work, count, threads, costs=None):
    """Return [work(i) for i in range(count)], computed on worker processes.

    min(threads, count, os.cpu_count()) workers run; with one, or where
    os.fork does not exist, this is a plain loop. shares() cuts the workers'
    shares at equal cumulative cost (costs[i] for index i, else 1). An error
    is raised as the loop would raise it: the error of the lowest failing
    index, with the same type and attributes. A worker that dies without
    reporting raises ChildProcessError.
    """
    workers = min(threads, count, os.cpu_count() or 1)
    if workers <= 1 or not hasattr(os, "fork"):
        return [work(i) for i in range(count)]
    bounds = shares([1] * count if costs is None else costs, workers)
    # A child inherits unflushed stdio buffers; a warning it prints would
    # flush the parent's pending text a second time.
    sys.stdout.flush()
    sys.stderr.flush()
    children = []  # (pid, read end) of every child not yet reaped
    try:
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            r, w = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _child(work, lo, hi, w)
            except BaseException:
                os.close(r)
                raise
            finally:
                os.close(w)
            children.append((pid, open(r, "rb")))
        results = []
        while children:
            pid, fh = children[0]
            payload = fh.read()
            fh.close()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            code = os.waitstatus_to_exitcode(status)
            if code != 0:
                raise ChildProcessError(
                    f"worker process {pid} ended with exit code {code} without reporting"
                )
            part, err = pickle.loads(payload)
            if err is not None:
                raise err
            results.extend(part)
        return results
    finally:
        for pid, fh in children:
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _child(work, lo, hi, w):
    """Run work(lo..hi-1) in a forked child, report through fd `w`, and exit."""
    code = 1
    try:
        part, err = [], None
        try:
            for i in range(lo, hi):
                part.append(work(i))
        except Exception as e:
            err = e
        payload = pickle.dumps((part, err), protocol=pickle.HIGHEST_PROTOCOL)
        with open(w, "wb") as fh:
            fh.write(payload)
        code = 0
    finally:
        os._exit(code)
