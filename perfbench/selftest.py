"""Quick self-test of the benchmark, run from the repository root:

    python3 perfbench/selftest.py

It recomputes the oracles and compares them with the cache, runs every
workload at a tiny size and requires its checks to pass, then perturbs the
outputs and requires each check to fail: the pooled filter mean moved away
from the oracle by 1.5 times its tolerance at the last time, one Euler-step count off by one,
and one 2-thread draw changed by one ulp. It also requires the tracer to
leave the program as it found it. Exits 0 when every case behaves.
"""

import copy
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (first: it limits BLAS and OpenMP to one thread)
import numpy as np  # noqa: E402
import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "ou-rand": lambda: workloads.OuRand(threads=1, draws=60, min_rounds=2),
    "ou-rand-2t": lambda: workloads.OuRand(threads=2, draws=60, min_rounds=2),
    "nld-mlpf": lambda: workloads.NldMlpf(repeats=3, min_rounds=2, c1=1 / 16),
    "nld-reference": lambda: workloads.NldReference(
        min_rounds=2, flags=["--particles", "400", "--repeats", "4"]),
}


def shift_last(wl, records, delta):
    """Records whose pooled last-time estimate is moved by delta."""
    out = copy.deepcopy(records)
    key = "mean" if isinstance(wl, workloads.NldReference) else "per_time"
    for r in out:
        r[key][..., -1] += delta
    return out


def miscount(wl, records):
    """Records with one Euler-step count (for the CLI, which has no counter,
    one of the sizes the steps follow from) off by one."""
    out = copy.deepcopy(records)
    r = out[0]
    if isinstance(wl, workloads.OuRand):
        r["cost"][0] += 1
    elif isinstance(wl, workloads.NldMlpf):
        r["costs"][0] += 1
    else:
        r["params"]["particles"] += 1
    return out


def check_tracer(upf, wl, expect):
    def program():
        return [upf.pf.transition, upf.unbiased_estimate, upf.rng.RngStream.gen,
                upf.observation.ObservationModel.log_g]

    before = program()
    tr = tracer.Tracer()
    tr.install()
    try:
        t0 = time.perf_counter()
        traced = wl.run_round(70)
        wall = time.perf_counter() - t0
    finally:
        tr.uninstall()
    expect(program() == before, "the tracer restores the program's functions")
    summary = tracer.summarize(tr.spans())
    self_sum = sum(v["self_s"] for v in summary.values())
    expect(abs(self_sum - wall) < 0.02 * wall,
           f"self times of a traced round add up to its wall time ({self_sum:.3f} of {wall:.3f} s)")
    expect(summary["randomization.draw_xi"]["count"] == wl.ops_per_round
           and summary["sde.transition"]["count"] > 0, "the tracer sees the draws and kernels")
    expect(workloads.same_draws(traced.draws, wl.run_round(70).draws),
           "a traced round gives the same draws as an untraced one")


def main():
    failures = []

    def expect(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    expect(oracles.main(["--check"]) == 0, "oracle cache matches a fresh computation")
    gap = max(oracles.quadrature_vs_ou(l) for l in (2, 6, 8))
    expect(gap < oracles.QUADRATURE_OU_TOL, f"quadrature filter matches OU Kalman ({gap:.2e})")

    upf = run.load_program()
    cache = oracles.load_cache()
    for name, make in TINY.items():
        wl = make()
        workdir = os.path.join(run.OUT, f"selftest-{name}")
        t0 = time.perf_counter()
        try:
            wl.setup(upf, workdir, cache)
            rounds = run.run_rounds(wl, 7, 0.0)
            problems = wl.check(rounds.records) + wl.final_check(7)
            expect(not problems and rounds.failed == 0,
                   f"{name}: {rounds.attempted} operations pass their checks {problems}")
            est, se = wl.pooled(rounds.records)
            away = 1.0 if est[-1] >= wl.oracle[-1] else -1.0
            delta = away * 1.5 * (workloads.Z * se[-1] + wl.BIAS)
            expect(bool(wl.check(shift_last(wl, rounds.records, delta))),
                   f"{name}: last-time mean moved by {delta:.3g} fails")
            expect(bool(wl.check(miscount(wl, rounds.records))),
                   f"{name}: an Euler-step count off by one fails")
            if isinstance(wl, workloads.OuRand) and wl.threads > 1:
                est1 = upf.unbiased_estimate(wl.plan, wl.bm, wl.data, 8, 7, threads=1)
                bad = copy.deepcopy(est1.draws)
                bad["xi"][3] = np.nextafter(bad["xi"][3], np.inf)
                expect(not workloads.same_draws(est1.draws, bad),
                       f"{name}: a draw changed by one ulp fails the thread identity check")
            if name == "ou-rand":
                check_tracer(upf, wl, expect)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"     {name}: {time.perf_counter() - t0:.1f} s")
    print("self-test", "failed: " + "; ".join(failures) if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
