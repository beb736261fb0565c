"""Worker processes for independent replicates.

Every replicate loop in the package (randomized draws, MLPF levels, and the
CLI's reference, run-mlpf and sweep-variance repeats) is a parallel_for map.
Each index draws from its own keyed stream, so the results do not depend on
the worker count or on scheduling.

A draw is mostly interpreted Python, so threads would only contend for the
interpreter lock. parallel_for instead forks its extra workers after `work`
exists, so each inherits the closure, the model and the data; the calling
process is a worker too. Before forking, the caller writes the run order,
largest cost first (longest-processing-time list scheduling), as 8-byte
entries into a temporary file, whose offset every forked worker shares. A
worker claims the next index by reading one entry: a read through one open
file advances its offset atomically, so each entry goes to exactly one
worker, and nothing is written back, so no worker ever waits on another and
one that dies loses only the index it claimed. Each child then sends back,
through a pipe, the pickled {index: result} of what it ran and its lowest
failing index's error, and leaves through os._exit, so it never flushes the
parent's stdio buffers or runs its exit handlers.
"""

import numbers
import os
import pickle
import signal
import sys
import tempfile

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
    children = []  # (pid, read end) of every child not yet reaped
    with tempfile.TemporaryFile() as queue:
        queue.write(b"".join(i.to_bytes(8, "little") for i in order))
        queue.seek(0)  # flushes the entries, and every worker reads on from here

        # Reads through one open file advance its offset atomically (Linux
        # since 3.14, and the BSDs), so each entry goes to one worker.
        def claim():  # the next index in run order, or None when none is left
            entry = os.read(queue.fileno(), 8)
            return int.from_bytes(entry, "little") if entry else None

        # A child inherits unflushed stdio buffers; a warning it prints would
        # flush the parent's pending text a second time.
        sys.stdout.flush()
        sys.stderr.flush()
        try:
            for _ in range(workers - 1):
                r, w = os.pipe()
                try:
                    if (pid := os.fork()) == 0:
                        _child(work, claim, w)
                except BaseException:
                    os.close(r)
                    raise
                finally:
                    os.close(w)
                children.append((pid, open(r, "rb")))
            done, failed = _run(work, claim)
            while children:
                pid, fh = children[0]
                payload = fh.read()  # to its end, however the child ends
                fh.close()
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                children.pop(0)
                if code != 0:
                    raise ChildProcessError(
                        f"worker process {pid} ended with exit code {code} without reporting")
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


def _run(work, claim):
    """Run work on claimed indices, skipping those above the lowest one seen
    to fail; return ({index: result}, (that index, its error) or None)."""
    done, failed = {}, None
    while (i := claim()) is not None:
        if failed is not None and i > failed[0]:
            continue
        try:
            done[i] = work(i)
        except Exception as e:
            failed = (i, e)
    return done, failed


def _child(work, claim, w):
    """Run claimed indices in a forked child, report through fd `w`, and exit."""
    code = 1
    try:
        payload = pickle.dumps(_run(work, claim), protocol=pickle.HIGHEST_PROTOCOL)
        with open(w, "wb") as fh:
            fh.write(payload)
        code = 0
    finally:
        os._exit(code)
