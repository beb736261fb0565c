"""The benchmark's workloads: program inputs, one timed round, and checks.

A round is a fixed amount of the same work (M draws, R MLPF repeats or one
CLI reference), run with a seed derived from the run's --seed. run.py times
each round; everything else here happens outside the timed sections. The
program is always called through the unbiasedpf package or module
attributes, so the tracer's wrappers see every call.
"""

import contextlib
import csv
import io
import json
import math
import os
import shutil

import numpy as np

import oracles

WARMUP_SEED = 1
Z = 6.0  # standard errors allowed on top of the particle-bias allowance


class RoundFailed(Exception):
    """The program reported a numerical failure for every operation of a round."""


class Workload:
    """Common checks: per-round exact checks, then the pooled filter means
    of all rounds against the oracle means, at every observation time.

    A pooled mean passes when it is within Z standard errors (estimated
    from the run itself) plus BIAS, the stated allowance for particle bias.
    """

    BIAS = 0.0
    label = ""

    def _gaps(self, records):
        est, se = self.pooled(records)
        return est, np.abs(est - np.asarray(self.oracle)), Z * se + self.BIAS

    def margin(self, records):
        """Largest gap / tolerance over the observation times (below 1 passes)."""
        _, gap, tol = self._gaps(records)
        return float(np.max(gap / tol))

    def check(self, records):
        problems = [f"round {i}: {p}" for i, r in enumerate(records)
                    for p in self.round_problems(r)]
        if not records:
            return problems
        est, gap, tol = self._gaps(records)
        return problems + [
            f"{self.label}: k={k + 1} estimate {est[k]:.6f} vs oracle {self.oracle[k]:.6f}, "
            f"gap {gap[k]:.2e} over tolerance {tol[k]:.2e}"
            for k in np.flatnonzero(~(gap <= tol))
        ]

    def final_check(self, seed):
        return []


class OuRand(Workload):
    """unbiased_estimate with make_truncated_plan(6, 10) on the OU record."""

    L_MAX, N0 = 6, 10
    # Particle bias of the truncated estimator: the level-0 term runs with
    # N_6 = 640 particles and its O(1/N) bias is far below this.
    BIAS = 0.01
    IDENTITY_M = 40  # draws compared between 1 and 2 threads
    label = "OU level-6 filter mean"

    def __init__(self, threads, draws=500, min_rounds=4):
        self.threads = threads
        self.ops_per_round = draws
        self.min_rounds = min_rounds

    def setup(self, upf, workdir, cache):
        self.upf = upf
        self.ys = cache["ou"]["y"]
        self.oracle = oracles.ou_euler_filter(self.ys, self.L_MAX)
        self.bm = upf.make_benchmark("OU")
        self.data = upf.DataSet(y=self.ys, model="OU", level="exact",
                                seed=cache["ou"]["data_seed"])
        self.plan = upf.make_truncated_plan(self.L_MAX, self.N0)
        upf.unbiased_estimate(self.plan, self.bm, self.data, 16, WARMUP_SEED,
                              threads=self.threads)

    def run_round(self, seed):
        return self.upf.unbiased_estimate(
            self.plan, self.bm, self.data, self.ops_per_round, seed, threads=self.threads
        )

    def record(self, est):
        d = est.draws
        return {
            "m": est.m, "l": d["l"].copy(), "p": d["p"].copy(), "cost": d["cost"].copy(),
            "wx": d["weight"] * d["xi"], "value": est.value, "total_cost": est.total_cost,
            "per_time": est.per_time.copy(), "per_time_se": est.per_time_stderr.copy(),
            "steps": est.total_cost,
        }

    def round_problems(self, r):
        ls, ps = r["l"].tolist(), r["p"].tolist()
        if r["m"] != self.ops_per_round or len(ls) != self.ops_per_round:
            yield f"{r['m']} draws, expected {self.ops_per_round}"
        if any(not 0 <= p <= self.L_MAX - l for l, p in zip(ls, ps)):
            yield "an (l, p) pair outside the truncated plan"
        closed = [oracles.draw_cost(l, p, len(self.ys), self.N0) for l, p in zip(ls, ps)]
        if r["cost"].tolist() != closed or r["total_cost"] != sum(closed):
            yield f"cost counters {r['total_cost']} differ from the closed form {sum(closed)}"
        if not math.isclose(r["value"], float(np.mean(r["wx"])), rel_tol=1e-12, abs_tol=1e-12):
            yield "value is not the mean of weight * xi"

    def pooled(self, records):
        est = np.mean([r["per_time"] for r in records], axis=0)
        se = np.sqrt(np.sum([r["per_time_se"] ** 2 for r in records], axis=0)) / len(records)
        return est, se

    def final_check(self, seed):
        """The draws of a multi-thread run equal those of a 1-thread run."""
        if self.threads == 1:
            return []
        one, many = (
            self.upf.unbiased_estimate(self.plan, self.bm, self.data, self.IDENTITY_M, seed,
                                       threads=t)
            for t in (1, self.threads)
        )
        if same_draws(one.draws, many.draws):
            return []
        return [f"threads={self.threads} draws differ from threads=1"]

    def per_op(self, records):
        """(variance of weight * xi per draw, Euler steps per draw)."""
        wx = np.concatenate([r["wx"] for r in records])
        return float(np.var(wx, ddof=1)), sum(r["steps"] for r in records) / len(wx)


def same_draws(a, b):
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


class NldMlpf(Workload):
    """R repeats of mlpf_estimate with allocate(6, "nonconstant") on NLD."""

    L = 6
    # Particle bias: the level-0 filter runs 24 576 particles and each
    # coupled level at least 384 pairs; O(1/N) terms stay far below this.
    BIAS = 0.003
    label = "NLD level-6 filter mean"

    def __init__(self, repeats=4, min_rounds=4, c1=1.0):
        self.ops_per_round = repeats
        self.min_rounds = min_rounds
        self.c1 = c1

    def setup(self, upf, workdir, cache):
        self.upf = upf
        self.ys = cache["nld"]["y"]
        self.oracle = cache["nld"]["mean_level%d" % self.L]
        self.bm = upf.make_benchmark("NLD")
        self.data = upf.DataSet(y=self.ys, model="NLD", level=cache["nld"]["gen_level"],
                                seed=cache["nld"]["data_seed"])
        self.alloc = upf.allocate(self.L, "nonconstant", self.c1)
        upf.mlpf_estimate(self.bm, self.data, upf.allocate(2, "nonconstant"), seed=WARMUP_SEED)

    def run_round(self, seed):
        return [
            self.upf.mlpf_estimate(self.bm, self.data, self.alloc,
                                   seed=seed * self.ops_per_round + i)
            for i in range(self.ops_per_round)
        ]

    def record(self, results):
        costs = [r.total_cost for r in results]
        return {
            "per_time": np.array([r.per_time for r in results]),
            "costs": costs, "sizes": self.alloc.sizes.tolist(), "steps": sum(costs),
        }

    def round_problems(self, r):
        sizes = oracles.mlpf_sizes(self.L, self.c1)
        closed = oracles.mlpf_cost(len(self.ys), sizes)
        if r["sizes"] != sizes:
            yield f"allocation {r['sizes']} differs from {sizes}"
        if any(c != closed for c in r["costs"]):
            yield f"cost counters {r['costs']} differ from the closed form {closed}"

    def pooled(self, records):
        vals = np.concatenate([r["per_time"] for r in records])
        return vals.mean(axis=0), vals.std(axis=0, ddof=1) / math.sqrt(len(vals))

    def per_op(self, records):
        """(variance of the final-time estimate per repeat, Euler steps per repeat)."""
        vals = np.concatenate([r["per_time"][:, -1] for r in records])
        return float(np.var(vals, ddof=1)), sum(r["steps"] for r in records) / len(vals)


class NldReference(Workload):
    """The CLI `reference --desk` on the NLD record, into a fresh directory."""

    LEVEL, PARTICLES, REPEATS = 8, 4000, 8   # what --desk means
    # Particle bias of a 4000-particle filter mean, O(1/N); the quadrature
    # oracle itself is within 1e-5.
    BIAS = 0.002
    label = "NLD level-8 filter mean"

    def __init__(self, min_rounds=3, flags=()):
        self.min_rounds = min_rounds
        self.flags = list(flags)
        self.particles = self._flag("--particles", self.PARTICLES)
        self.ops_per_round = self._flag("--repeats", self.REPEATS)

    def _flag(self, name, default):
        return int(self.flags[self.flags.index(name) + 1]) if name in self.flags else default

    def setup(self, upf, workdir, cache):
        from unbiasedpf import cli
        self.cli = cli
        self.ys = cache["nld"]["y"]
        self.oracle = cache["nld"]["mean_level%d" % self.LEVEL]
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.data_csv = os.path.join(workdir, "data.csv")
        with open(self.data_csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["k", "y"])
            for k, y in enumerate(self.ys, start=1):
                w.writerow([k, repr(y)])
        with open(os.path.join(workdir, "data.meta.json"), "w") as fh:
            json.dump({"model": "NLD", "level": cache["nld"]["gen_level"],
                       "seed": cache["nld"]["data_seed"]}, fh)
        self.config = os.path.join(workdir, "reference.cfg")
        with open(self.config, "w") as fh:
            fh.write("# desk-scale particle-filter reference; --seed overrides seed\n"
                     "model = NLD\ndesk = true\nseed = 1\n")
        self._call(["--out", os.path.join(workdir, "warmup"), "--seed", str(WARMUP_SEED),
                    "--level", "2", "--particles", "100", "--repeats", "2"])

    def _call(self, extra):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = self.cli.main(["reference", "--config", self.config, "--data", self.data_csv]
                               + extra)
        if rc == 2:
            raise RoundFailed("reference reported a numerical failure")
        if rc != 0:
            raise RuntimeError(f"unbiasedpf reference exited with {rc}")
        return out.getvalue()

    def run_round(self, seed):
        out_dir = os.path.join(self.workdir, f"round-{seed}")
        shutil.rmtree(out_dir, ignore_errors=True)
        stdout = self._call(["--out", out_dir, "--seed", str(seed)] + self.flags)
        return out_dir, stdout

    def record(self, result):
        out_dir, stdout = result
        csv_path = os.path.join(out_dir, "reference.csv")
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(os.path.join(out_dir, "reference.meta.json")) as fh:
            params = json.load(fh)["params"]
        shutil.rmtree(out_dir)
        return {
            "listed": f"reference: {csv_path}" in stdout,
            "k": [int(r["k"]) for r in rows],
            "mean": np.array([float(r["mean"]) for r in rows]),
            "var": np.array([float(r["var"]) for r in rows]),
            "params": params,
            # The CLI keeps no cost counter, so the steps come from the
            # closed form applied to the parameters the run reports.
            "steps": oracles.reference_cost(len(rows), params["level"], params["particles"],
                                            params["repeats"]),
        }

    def round_problems(self, r):
        p = r["params"]
        want = ("pf", self.LEVEL, self.particles, self.ops_per_round)
        if (p.get("kind"), p.get("level"), p.get("particles"), p.get("repeats")) != want:
            yield f"reference ran with {p}"
        if r["k"] != list(range(1, len(self.ys) + 1)):
            yield f"reference.csv rows {r['k']}, expected 1..{len(self.ys)}"
        if not r["listed"]:
            yield "the CLI did not list reference.csv"

    def pooled(self, records):
        # Each round averages `repeats` independent filters; pool the rounds.
        reps = sum(r["params"]["repeats"] for r in records)
        est = np.mean([r["mean"] for r in records], axis=0)
        return est, np.sqrt(np.mean([r["var"] for r in records], axis=0) / reps)

    def per_op(self, records):
        """(variance of the final-time estimate per repeat, Euler steps per repeat)."""
        var = float(np.mean([r["var"][-1] for r in records]))
        return var, sum(r["steps"] for r in records) / sum(r["params"]["repeats"] for r in records)


WORKLOADS = {
    "ou-rand": lambda: OuRand(threads=1),
    "ou-rand-2t": lambda: OuRand(threads=2),
    "nld-mlpf": lambda: NldMlpf(),
    "nld-reference": lambda: NldReference(),
}
