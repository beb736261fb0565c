"""Paired benchmark runs of two source trees, written as a BENCH_<tag>.json.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload W \
        --seeds 11-18 [--seconds 20] [--trace-seed S] [--rss-rounds K] \
        --out BENCH_tag.json

DIR is a checkout (for instance a `git archive` of a commit) with its own
BENCHMARK.json, perfbench/ and src/. Pair i runs `perfbench/run.py
--trace 0` in both trees on seed S0 + i, the parent first in even pairs.
The medians, quartiles, wins and verdicts of every end-to-end metric that
the change's BENCHMARK.json declares go under "workloads" -> W in --out,
which is updated in place, so workloads can be added one call at a time.
With --trace-seed, one `--trace 1` run per side on that seed is stored
under "per_layer" -> W as well. With --rss-rounds, each side also runs K
rounds in one fresh process and reports how much its peak RSS grew over
them, under "rss_growth" -> W: the program's own memory, without the
per-round records that run.py keeps. Runs are sequential: the two sides
never share the machine with each other.

A metric's verdict, from the benchmark's direction and bound:
  "gain"          the change reads better in at least 9 of 10 pairs, its
                  median is better by more than the parent's quartile range,
                  and it failed no more operations than the parent;
  "regression"    its median is worse than the parent's by more than the bound;
  "unresolved"    otherwise, when the parent's quartile range is wider than
                  the bound, so a move of the bound cannot be told apart,
                  unless every run of the change reads better than every run
                  of the parent;
  "within bound"  otherwise.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

import numpy as np

SIDES = ("parent", "change")
GAIN_SHARE = 0.9
RSS_PROBE = """
import os, resource, shutil, sys
sys.path.insert(0, "perfbench")
import oracles, run, workloads
upf = run.load_program()
wl = workloads.WORKLOADS[{workload!r}]()
workdir = os.path.join(run.OUT, "rss-probe-%d" % os.getpid())
try:
    wl.setup(upf, workdir, oracles.load_cache())
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for r in range({rounds}):
        wl.run_round(run.round_seed({seed}, r))
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
finally:
    shutil.rmtree(workdir, ignore_errors=True)
print(before / 1024.0, after / 1024.0)
"""


def run(tree, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(res.stdout.strip().splitlines()[-1])


def end_to_end_metrics(tree):
    """{name: (better, bound)} of the end-to-end metrics in tree/BENCHMARK.json."""
    with open(os.path.join(tree, "BENCHMARK.json")) as fh:
        return {m["name"]: (m["better"], m["bound"]) for m in json.load(fh)["end_to_end"]}


def verdict(parent, change, wins, pairs, sign, bound, failed):
    """The verdict of one metric (see the module docstring) from each
    side's quartiles and range, the change's wins in `pairs` pairs and each
    side's failed operations; sign is +1 where higher is better and -1
    where lower is."""
    gap = (change["median"] - parent["median"]) * sign
    spread = parent["q3"] - parent["q1"]
    if wins >= GAIN_SHARE * pairs and gap > spread and failed["change"] <= failed["parent"]:
        return "gain"
    if -gap > bound * abs(parent["median"]):
        return "regression"
    worst_change = min(change["min"] * sign, change["max"] * sign)
    separated = worst_change > max(parent["min"] * sign, parent["max"] * sign)
    if spread > bound * abs(parent["median"]) and not separated:
        return "unresolved"
    return "within bound"


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def quartiles(values):
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(med), 6), "q1": round(float(q1), 6),
            "q3": round(float(q3), 6), "min": round(float(min(values)), 6),
            "max": round(float(max(values)), 6), "n": len(values)}


def machine():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu": cpu, "logical_cpus": os.cpu_count(), "os": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__,
            "shared": "other containers share the host; runs alternate sides"}


def ops_per_round(tree, workload):
    sys.path[:0] = [os.path.join(tree, "perfbench")]
    import workloads
    return workloads.WORKLOADS[workload]().ops_per_round


def paired(args):
    metrics = end_to_end_metrics(args.change)
    runs = {side: [] for side in SIDES}
    for i, seed in enumerate(seeds_of(args.seeds)):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            out = run(getattr(args, side), args.workload, seed, args.seconds, 0)
            runs[side].append(out)
            print(f"{args.workload} seed {seed} {side}: {json.dumps(out['metrics'])}",
                  file=sys.stderr)
    per_round = ops_per_round(args.change, args.workload)
    rec = {"pairs": len(runs["parent"]), "seeds": seeds_of(args.seeds),
           "all_correct": all(r["correct"] for side in SIDES for r in runs[side]),
           "failed_ops": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
           "attempted_ops": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
           "wins": {}, "verdicts": {}}
    for side in SIDES:
        rec[side] = {m: quartiles([r["metrics"][m]["value"] for r in runs[side]])
                     for m in metrics}
        rec[side]["rounds_per_run"] = [r["attempted"] // per_round for r in runs[side]]
    for m, (better, bound) in metrics.items():
        pairs = [(p["metrics"][m]["value"], c["metrics"][m]["value"])
                 for p, c in zip(runs["parent"], runs["change"])]
        sign = 1.0 if better == "higher" else -1.0
        rec["wins"][m] = sum(sign * (c - p) > 0 for p, c in pairs)
        rec["verdicts"][m] = verdict(rec["parent"][m], rec["change"][m], rec["wins"][m],
                                     len(pairs), sign, bound, rec["failed_ops"])
    rec["change_over_parent_median"] = {
        m: round(rec["change"][m]["median"] / rec["parent"][m]["median"], 4) for m in metrics}
    return rec


def rss_growth(args):
    """Each side's peak RSS in MB after set-up and after --rss-rounds rounds
    of seed --seeds' first seed, in one fresh process per side."""
    rec = {"rounds": args.rss_rounds, "seed": seeds_of(args.seeds)[0]}
    for side in SIDES:
        code = RSS_PROBE.format(workload=args.workload, rounds=args.rss_rounds, seed=rec["seed"])
        res = subprocess.run([sys.executable, "-c", code], cwd=getattr(args, side),
                             capture_output=True, text=True, check=True)
        before, after = map(float, res.stdout.split())
        rec[side] = {"after_setup_mb": round(before, 3), "after_rounds_mb": round(after, 3),
                     "growth_mb": round(after - before, 3)}
    return rec


def traced(args):
    rec = {"command": f"python3 perfbench/run.py --workload {args.workload} "
                      f"--seed {args.trace_seed} --seconds {args.seconds:g} --trace 1"}
    for side in SIDES:
        out = run(getattr(args, side), args.workload, args.trace_seed, args.seconds, 1)
        rec[side] = {m: round(v["value"], 6) for m, v in out["metrics"].items()}
    return rec


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="S0-S1, inclusive")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--rss-rounds", type=int)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc["machine"] = machine()
    doc["method"] = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} "
                   "--trace 0",
        "pairs": "pair i runs both sides on seed S0 + i; even pairs run the parent first",
        "wins": "pairs where the change reads better; ties count for neither side",
        "verdicts": "gain: >= 9 of 10 pairs better, a median gap over the parent's "
                    "quartile range and no more failed operations than the parent; "
                    "regression: median worse by more than the bound in BENCHMARK.json; "
                    "unresolved: the parent's quartile range is wider than that bound and "
                    "some run of the change reads no better than some run of the parent; "
                    "otherwise within bound",
        "quartiles": "numpy percentile 25/50/75 over the runs of one side",
        "rounds_per_run": "attempted operations / operations per round, one entry per run "
                          "in seed order"}
    doc.setdefault("workloads", {})[args.workload] = paired(args)
    if args.trace_seed is not None:
        doc.setdefault("per_layer", {})[args.workload] = traced(args)
    if args.rss_rounds is not None:
        doc.setdefault("rss_growth", {})[args.workload] = rss_growth(args)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
