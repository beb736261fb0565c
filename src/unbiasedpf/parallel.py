"""Worker processes for independent replicates.

Every replicate loop in the package (randomized draws, MLPF levels, and the
CLI's reference, run-mlpf and sweep-variance repeats) is a parallel_for map.
Each index draws from its own keyed stream, so the results do not depend on
the worker count or on scheduling.

A draw is mostly interpreted Python, so threads would only contend for the
interpreter lock. parallel_for instead forks its extra workers after `work`
exists, so each inherits the closure, the model and the data; the calling
process is a worker too. Every worker claims the next index, largest cost
first (longest-processing-time list scheduling), from one shared counter
until none is left. Each child then sends back, through a pipe, the pickled
{index: result} of what it ran and its lowest failing index's error, and
leaves through os._exit, so it never flushes the parent's stdio buffers or
runs its exit handlers.
"""

import numbers
import os
import pickle
import select
import signal
import sys

from .errors import InvalidRate


def check_threads(threads):
    """Return `threads` as an int; raise InvalidRate unless it is an integer >= 1."""
    if not isinstance(threads, numbers.Integral) or threads < 1:
        raise InvalidRate(f"threads must be an integer >= 1, got {threads!r}")
    return int(threads)


def _usable_cpus():
    """The CPUs this process may run on (its affinity mask), else os.cpu_count()."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def parallel_for(work, count, threads, costs=None):
    """Return [work(i) for i in range(count)], computed on worker processes.

    min(threads, count, _usable_cpus()) workers run, the calling process
    among them; with one, or where os.fork does not exist, this is a plain
    loop. Workers claim indices one at a time in order of descending
    costs[i] (index order among equal costs, or when costs is None). An
    error is raised as the loop would raise it: the error of the lowest
    failing index, with the same type and attributes. A worker that dies
    without reporting raises ChildProcessError.
    """
    workers = min(threads, count, _usable_cpus())
    if workers <= 1 or not hasattr(os, "fork"):
        return [work(i) for i in range(count)]
    # a stable sort: index order among equal costs
    order = sorted(range(count), key=lambda i: 0 if costs is None else costs[i], reverse=True)
    # The counter is the one 8-byte message in a pipe (atomic, as it is under
    # PIPE_BUF): a worker claims a position by reading it and writing it + 1.
    # A child killed between the two takes the counter with it, so a worker
    # waits for it in select, and the caller checks on its children every
    # 0.1 s of waiting; a healthy worker holds the counter for microseconds.
    counter_r, counter_w = os.pipe()
    os.set_blocking(counter_r, False)
    os.write(counter_w, bytes(8))
    children = []  # (pid, read end) of every child not yet reaped

    def claim():
        while True:
            try:
                pos = int.from_bytes(os.read(counter_r, 8), "little")
                os.write(counter_w, (pos + 1).to_bytes(8, "little"))
                return pos
            except BlockingIOError:  # another worker holds the counter
                wait(counter_r)

    def wait(fd):  # until fd is readable, or a child has ended without reporting
        while not select.select([fd], [], [], 0.1)[0]:
            for pid, _ in children:
                info = os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT)
                if code := info and (info.si_status if info.si_code == os.CLD_EXITED
                                     else -info.si_status):
                    raise _unreported(pid, code)

    # A child inherits unflushed stdio buffers; a warning it prints would
    # flush the parent's pending text a second time.
    sys.stdout.flush()
    sys.stderr.flush()
    try:
        for _ in range(workers - 1):
            r, w = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    children.clear()  # a child waits only on the counter
                    _child(work, order, claim, w)
            except BaseException:
                os.close(r)
                raise
            finally:
                os.close(w)
            children.append((pid, open(r, "rb")))
        done, failed = _run(work, order, claim)
        while children:
            pid, fh = children[0]
            wait(fh)  # it may be claiming from a counter that a dead child took
            payload = fh.read()
            fh.close()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            if code != 0:
                raise _unreported(pid, code)
            part, err = pickle.loads(payload)
            done.update(part)
            if err is not None and (failed is None or err[0] < failed[0]):
                failed = err
        if failed is not None:
            raise failed[1]
        return [done[i] for i in range(count)]
    finally:
        for pid, fh in children:
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        os.close(counter_r)
        os.close(counter_w)


def _unreported(pid, code):
    return ChildProcessError(f"worker process {pid} ended with exit code {code} without reporting")


def _run(work, order, claim):
    """Run work on claimed positions of `order`, skipping indices above the lowest
    one seen to fail; return ({index: result}, (that index, its error) or None)."""
    done, failed = {}, None
    while (pos := claim()) < len(order):
        i = order[pos]
        if failed is not None and i > failed[0]:
            continue
        try:
            done[i] = work(i)
        except Exception as e:
            failed = (i, e)
    return done, failed


def _child(work, order, claim, w):
    """Run claimed indices in a forked child, report through fd `w`, and exit."""
    code = 1
    try:
        payload = pickle.dumps(_run(work, order, claim), protocol=pickle.HIGHEST_PROTOCOL)
        with open(w, "wb") as fh:
            fh.write(payload)
        code = 0
    finally:
        os._exit(code)
