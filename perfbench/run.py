"""Benchmark of the randomized filter, run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is imported from ./src (no install). Each run sets the workload
up, repeats rounds of a fixed amount of work until S seconds have passed
(and at least the workload's minimum number of rounds has run), checks
every output against perfbench/oracles.py, and prints one JSON object as
the last line of stdout. With --trace 0 it reports the end-to-end metrics;
with --trace 1 it alternates untraced and traced rounds on the same seeds
and reports the per-layer metrics of the traced ones. See README.md.
"""

import time

_T0 = time.perf_counter()

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 5

# At most the threads the workload asks for: no BLAS or OpenMP pools.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, HERE)


def load_program():
    """Import unbiasedpf from ./src of this checkout, and nothing else."""
    init = os.path.join(SRC, "unbiasedpf", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"perfbench: no program source at {init}")
    sys.path.insert(0, SRC)
    import unbiasedpf
    if os.path.abspath(unbiasedpf.__file__) != init:
        raise SystemExit(f"perfbench: imported unbiasedpf from {unbiasedpf.__file__}, not {init}")
    return unbiasedpf


def round_seed(seed, r):
    return seed * 1000 + r


def setup_probe(workload):
    """One fresh-process set-up: import, inputs, warm-up. Prints seconds."""
    from oracles import read_cache
    cache = read_cache()
    upf = load_program()
    import workloads
    wl = workloads.WORKLOADS[workload]()
    workdir = os.path.join(OUT, f"probe-{workload}-{os.getpid()}")
    try:
        wl.setup(upf, workdir, cache)
        print(repr(time.perf_counter() - _T0))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(workload):
    """Median set-up time over SETUP_PROBES fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        res = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload, "--setup-probe"],
            capture_output=True, text=True, timeout=120,
        )
        if res.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{res.stderr}")
        times.append(float(res.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Rounds:
    """Outcome of the timed rounds of one run."""

    def __init__(self, failures):
        self.failures = failures  # exceptions that count a round's operations as failed
        self.records = []
        self.walls = []         # untraced round seconds
        self.traced_walls = []  # traced round seconds, paired with walls
        self.attempted = 0
        self.failed = 0
        self.steps = 0

    def run(self, wl, seed, tracer=None):
        """One round: returns its wall seconds, or None if it failed.

        A traced round repeats the untraced round of the same seed, so only
        untraced rounds are recorded and checked.
        """
        self.attempted += wl.ops_per_round
        if tracer is not None:
            tracer.install()
        try:
            t0 = time.perf_counter()
            out = wl.run_round(seed)
            wall = time.perf_counter() - t0
        except self.failures:
            self.failed += wl.ops_per_round
            return None
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is None:
            rec = wl.record(out)
            self.records.append(rec)
            self.steps += rec["steps"]
        return wall


def run_rounds(wl, seed, seconds, tracer=None):
    from unbiasedpf.errors import DegenerateWeights, NumericalOverflow
    import workloads
    rounds = Rounds((DegenerateWeights, NumericalOverflow, workloads.RoundFailed))
    start = time.perf_counter()
    r = 0
    while r < wl.min_rounds or time.perf_counter() - start < seconds:
        s = round_seed(seed, r)
        wall = rounds.run(wl, s)
        if tracer is not None:
            traced = rounds.run(wl, s, tracer)
            if wall is not None and traced is not None:
                rounds.traced_walls.append(traced)
                rounds.walls.append(wall)
        elif wall is not None:
            rounds.walls.append(wall)
        r += 1
    return rounds


def end_to_end(rounds, setup_s):
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": statistics.median(rounds.walls), "unit": "s"},
        "euler_steps_per_s": {"value": rounds.steps / sum(rounds.walls), "unit": "steps/s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }


def estimator_stats(wl, rounds):
    """Cost per precision of the workload's estimator, from untraced rounds:
    seconds, and Euler steps times variance, to reach a standard error of
    0.01 on the last-time filter mean."""
    var, steps = wl.per_op(rounds.records)
    sec_per_op = statistics.median(rounds.walls) / wl.ops_per_round
    return sec_per_op * var / 0.01 ** 2, steps * var


def per_layer(wl, rounds, tracer, trace_path):
    import numpy as np
    import tracer as tr
    sp = tracer.spans()
    np.savez_compressed(trace_path, names=np.array(tr.NAMES), **sp)
    s = tr.summarize(sp)
    n = len(rounds.traced_walls)
    traced_wall = sum(rounds.traced_walls)

    def per_round(name, key="self_s"):
        return s[name][key] / n

    def ratio(a, b, scale=1.0):
        return a * scale / b if b > 0 else 0.0

    time_to_se, steps_x_var = estimator_stats(wl, rounds)
    draws = s["randomization.draw_xi"]
    m = {
        "rng.gen_init.count": (per_round("rng.gen_init", "count"), "count"),
        "rng.gen_init.self_s": (per_round("rng.gen_init"), "s"),
    }
    for name in ("sde.transition", "sde.coupled_transition"):
        m[name + ".self_s"] = (per_round(name), "s")
        m[name + ".steps_per_s"] = (ratio(s[name]["qty"], s[name]["self_s"]), "steps/s")
    for name in ("observation.log_g", "pf.normalized_weights", "pf.pf_step",
                 "pf.batch_pf_run", "pf.multinomial_indices", "cpf.wasserstein_resample",
                 "cpf.cpf_step", "cpf.batch_cpf_run", "randomization.draw_xi",
                 "randomization.estimate", "mlpf.mlpf_estimate", "cli.main"):
        m[name + ".self_s"] = (per_round(name), "s")
    for name in ("observation.log_g", "pf.multinomial_indices", "cpf.wasserstein_resample"):
        m[name + ".ns_per_particle"] = (ratio(s[name]["self_s"], s[name]["qty"], 1e9), "ns")
    m["randomization.draw_xi.us_per_draw"] = (
        ratio(draws["incl_s"], draws["count"], 1e6), "us")
    m["randomization.parallelism"] = (ratio(draws["incl_s"], traced_wall), "ratio")
    retried = draws["count"] - n * wl.ops_per_round if draws["count"] else 0
    m["randomization.retries"] = (retried / n, "count")
    m["estimator.time_to_se_s"] = (time_to_se, "s")
    m["estimator.steps_x_var"] = (steps_x_var, "steps")
    overhead = statistics.median(t / u for t, u in zip(rounds.traced_walls, rounds.walls))
    m["trace.overhead_pct"] = (100.0 * (overhead - 1.0), "%")

    # Human-readable tables on stderr: per layer, and per (l, p) cell.
    print(f"traced rounds {n}, traced wall {traced_wall:.3f} s", file=sys.stderr)
    print(f"{'span':28s} {'calls':>9s} {'self_s':>10s} {'incl_s':>10s}", file=sys.stderr)
    for name, v in s.items():
        print(f"{name:28s} {v['count']:9d} {v['self_s']:10.4f} {v['incl_s']:10.4f}",
              file=sys.stderr)
    print(f"{'sum of self times':28s} {'':9s} {sum(v['self_s'] for v in s.values()):10.4f}",
          file=sys.stderr)
    for (l, p), (count, us) in sorted(tr.draw_cells(sp).items()):
        print(f"draw_xi l={l} p={p}: {count} draws, {us:.0f} us per draw", file=sys.stderr)
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description="Benchmark of the randomized filter.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload)
        return 0
    if args.seed < 0:
        raise SystemExit("perfbench: --seed must be non-negative")
    upf = load_program()
    import oracles
    import tracer
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    cache = oracles.load_cache()
    wl = workloads.WORKLOADS[args.workload]()
    setup_s = None if args.trace else measure_setup(args.workload)
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        wl.setup(upf, workdir, cache)
        tr = tracer.Tracer() if args.trace else None
        rounds = run_rounds(wl, args.seed, args.seconds, tr)
        problems = wl.check(rounds.records) + wl.final_check(round_seed(args.seed, 999))
        print(f"check margin: largest gap / tolerance {wl.margin(rounds.records):.3f}",
              file=sys.stderr)
        print("estimator: time_to_se_s %.6g steps_x_var %.6g" % estimator_stats(wl, rounds),
              file=sys.stderr)
        if args.trace:
            trace_path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.npz")
            metrics = per_layer(wl, rounds, tr, trace_path)
        else:
            metrics = end_to_end(rounds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
