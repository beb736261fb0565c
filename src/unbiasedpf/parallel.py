"""Thread scheduling for independent replicates.

Every replicate loop in the package (randomized draws, MLPF levels, and the
CLI's repeated runs) hands its per-index work to parallel_for. Each index
writes its result into its own preallocated slot and draws from its own
keyed stream, so the outcome does not depend on the thread count or on
scheduling.
"""

from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait

import numpy as np


def parallel_for(work, count, threads):
    """Run work(i) for i in range(count), optionally across a thread pool.

    Results must land in preallocated per-index slots inside `work`, so the
    outcome is independent of scheduling. The first raised error aborts the
    run (pending chunks are cancelled).
    """
    if threads is None or threads <= 1 or count <= 1:
        for i in range(count):
            work(i)
        return
    threads = min(threads, count)
    bounds = np.linspace(0, count, 4 * threads + 1).astype(int)

    def run_chunk(lo, hi):
        for i in range(lo, hi):
            work(i)

    with ThreadPoolExecutor(max_workers=threads) as ex:
        futs = [
            ex.submit(run_chunk, lo, hi)
            for lo, hi in zip(bounds[:-1], bounds[1:])
            if hi > lo
        ]
        done, pending = wait(futs, return_when=FIRST_EXCEPTION)
        err = next((f.exception() for f in done if f.exception()), None)
        if err is not None:
            for f in pending:
                f.cancel()
            raise err
        for f in pending:
            f.result()
