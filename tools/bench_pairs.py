"""Paired benchmark runs of two source trees, written as a BENCH_<tag>.json.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload W \
        --seeds 11-18 [--seconds 20] [--trace-seed S] --out BENCH_tag.json

DIR is a checkout (for instance a `git archive` of a commit) with its own
perfbench/ and src/. Pair i runs `perfbench/run.py --trace 0` in both trees
on seed S0 + i, the parent first in even pairs. The medians, quartiles and
wins of every end-to-end metric go under "workloads" -> W in --out, which
is updated in place, so workloads can be added one call at a time. With
--trace-seed, one `--trace 1` run per side on that seed is stored under
"per_layer" -> W as well. Runs are sequential: the two sides never share
the machine with each other.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

import numpy as np

END_TO_END = ("setup_s", "wall_s", "euler_steps_per_s", "peak_rss_mb")
HIGHER_IS_BETTER = {"euler_steps_per_s"}
SIDES = ("parent", "change")


def run(tree, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(res.stdout.strip().splitlines()[-1])


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def quartiles(values):
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(med), 6), "q1": round(float(q1), 6),
            "q3": round(float(q3), 6), "n": len(values)}


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
           "wins": {}}
    for side in SIDES:
        rec[side] = {m: quartiles([r["metrics"][m]["value"] for r in runs[side]])
                     for m in END_TO_END}
        rec[side]["rounds_per_run"] = [r["attempted"] // per_round for r in runs[side]]
    for m in END_TO_END:
        pairs = [(p["metrics"][m]["value"], c["metrics"][m]["value"])
                 for p, c in zip(runs["parent"], runs["change"])]
        better = (lambda p, c: c > p) if m in HIGHER_IS_BETTER else (lambda p, c: c < p)
        rec["wins"][m] = sum(better(p, c) for p, c in pairs)
    rec["change_over_parent_median"] = {
        m: round(rec["change"][m]["median"] / rec["parent"][m]["median"], 4) for m in END_TO_END}
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
        "quartiles": "numpy percentile 25/50/75 over the runs of one side",
        "rounds_per_run": "attempted operations / operations per round, one entry per run "
                          "in seed order"}
    doc.setdefault("workloads", {})[args.workload] = paired(args)
    if args.trace_seed is not None:
        doc.setdefault("per_layer", {})[args.workload] = traced(args)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
