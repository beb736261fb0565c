"""Command-line experiment driver.

Subcommands cover the whole workflow: `generate` simulates observation
records, `reference` computes exact (Kalman) or high-resolution filter
references, `run-unbiased` / `run-single-rand` run the randomized
estimators, `run-mlpf` runs the multilevel baseline, `sweep-variance`
measures how coupled increments decay with the level, and `compare` turns
matched-MSE cost curves into cost ratios.

Each option is declared once, as an ExperimentConfig field that names its
help text and the subcommands whose runners read it; a subcommand takes
those flags plus --config, --out and --threads, and refuses any other.
Every run is reproducible from its config: a flat key = value file
(--config) may set any field, explicit flags take precedence, and each
artifact directory gets the resolved configuration echoed into its
metadata. The CSV and JSON artifacts are written and read by `observation`;
a file whose contents they cannot parse, a side or cache file included, is
a configuration error naming the file.

Exit codes: 1 for configuration problems, 2 for numerical failures, 3 for
I/O failures.
"""

import argparse
import hashlib
import math
import os
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .costs import cost_of_draw
from .cpf import SCHEMES, batch_cpf_run, check_scheme
from .errors import (
    ConfigError,
    CostBudgetExceeded,
    DegenerateWeights,
    ExactUnavailable,
    InvalidLevel,
    InvalidRate,
    InvalidSimplex,
    ModelMismatch,
    NonOverlappingRange,
    NumericalOverflow,
    UnknownModel,
    UnsupportedDimension,
)
from .mlpf import allocate, mlpf_cost, mlpf_estimate
from .observation import (_read_csv, _read_json, _write_csv, _write_meta, generate_data,
                          kalman_reference, make_benchmark, read_dataset, write_dataset)
from .parallel import check_threads, parallel_for
from .pf import BatchSchedule, batch_pf_run
from .randomization import (
    default_base_size,
    expected_draw_cost,
    make_single_rand_plan,
    make_theory_plan,
    make_truncated_plan,
    unbiased_estimate,
)
from .rng import ROLE_MLPF, ROLE_REFERENCE, ROLE_SWEEP, RngStream
from .sde import Level

_CONFIG_ERRORS = (
    ConfigError,
    UnknownModel,
    InvalidRate,
    ExactUnavailable,
    ModelMismatch,
    ValueError,
)
_NUMERICAL_ERRORS = (
    NumericalOverflow,
    DegenerateWeights,
    CostBudgetExceeded,
    NonOverlappingRange,
    InvalidLevel,
    InvalidSimplex,
    UnsupportedDimension,
)


_SUBCOMMANDS = {
    "generate": "simulate an observation record",
    "run-unbiased": "run unbiased estimator",
    "run-single-rand": "run single rand estimator",
    "run-mlpf": "multilevel particle filter baseline",
    "sweep-variance": "coupled increment variance by level",
    "reference": "exact or high-resolution reference filter",
    "compare": "cost ratio at matched MSE",
}
_RANDOMIZED = ("run-unbiased", "run-single-rand")
_ON_DATA = ("reference", *_RANDOMIZED, "run-mlpf", "sweep-variance")


def _option(help, *modes, default=None, choices=None):
    """A config field that is also a flag of the subcommands in `modes`, the
    ones whose runners read it; `default` is what ExperimentConfig.get
    returns while the field is unset, and the help text names it."""
    if isinstance(default, bool):
        help += " (default)" if default else ""
    elif default is not None:
        help += f" (default {default})"
    meta = {"help": help, "modes": modes, "default": default, "choices": choices}
    return field(default=None, metadata=meta)


@dataclass
class ExperimentConfig:
    """Everything a run needs, with None meaning "use the mode's default".
    Every field but `mode` is also the flag of the subcommands whose runners
    read it; a config file may set any field for any subcommand."""

    mode: str = None
    model: str = _option("OU, Langevin, GBM or NLD", "generate", *_ON_DATA)
    n: int = _option("number of observations", "generate")
    seed: int = _option("base seed", "generate", *_ON_DATA, default=1)
    threads: int = _option("worker processes, this one included", *_SUBCOMMANDS, default=1)
    out: str = _option("output directory", *_SUBCOMMANDS, default="results")
    desk: bool = _option("small-scale defaults for quick runs", *_ON_DATA, default=False)
    strict: bool = _option("abort on the first failed draw", *_RANDOMIZED, default=True)
    scheme: str = _option("coupled resampling scheme", *_RANDOMIZED,
                          "run-mlpf", "sweep-variance", default="wasserstein", choices=SCHEMES)
    gen_level: str = _option('generation level, an integer or "exact"', "generate")
    data: str = _option("dataset CSV from `generate`", *_ON_DATA)
    lmax: int = _option("truncation level", *_RANDOMIZED, default=4)
    m: int = _option("number of randomized draws", *_RANDOMIZED)
    n0: int = _option("base sample size N_0", *_RANDOMIZED)
    beta: float = _option("variance decay rate override", "run-unbiased")
    rho: float = _option("geometric level pmf exponent factor", "run-unbiased", default=0.9)
    unbounded: bool = _option("use the unbounded (truly unbiased) plan", *_RANDOMIZED,
                              default=False)
    cost_budget: int = _option("abort if any draw would exceed this Euler-step cost",
                               *_RANDOMIZED)
    reference: str = _option("reference CSV for the MSE outputs",
                             *_RANDOMIZED, "run-mlpf")
    mse_points: int = _option("points on the MSE-vs-cost curve", *_RANDOMIZED, default=8)
    levels: tuple = _option("run-mlpf: maximum levels L, e.g. 1,2,3,4; "
                            "sweep-variance: coupled levels, e.g. 2,3,4,5",
                            "run-mlpf", "sweep-variance")
    repeats: int = _option("reference: PF reference repeats; run-mlpf: independent runs "
                           "per L; sweep-variance: runs per level",
                           "reference", "run-mlpf", "sweep-variance")
    c1: float = _option("allocation constant", "run-mlpf", default=1.0)
    particles: int = _option("reference: PF reference particle count; "
                             "sweep-variance: pairs per run",
                             "reference", "sweep-variance")
    level: int = _option("PF reference level (non-OU models)", "reference")
    refresh: bool = _option("recompute even if a matching cached reference exists",
                            "reference", default=False)
    unbiased: str = _option("randomized MSE-vs-cost CSV", "compare")
    mlpf: str = _option("multilevel MSE-vs-cost CSV", "compare")

    def get(self, name, default=None):
        """The field's value; while it is unset, its constant default if it
        has one, else `default` (a default that depends on the mode, --desk
        or the model)."""
        v = getattr(self, name)
        if v is None:
            v = self.__dataclass_fields__[name].metadata.get("default")
        return default if v is None else v


def _coerce(name, raw):
    """Parse a raw config-file string into the field's annotated type;
    ValueError when it is not one."""
    s = raw.strip()
    if s == "" or s.lower() == "none":
        return None
    kind = ExperimentConfig.__annotations__[name]
    if kind is int:
        return int(s)
    if kind is float:
        return float(s)
    if kind is bool:
        low = s.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ValueError("not a boolean")
    if kind is tuple:
        return tuple(int(tok) for tok in s.replace(",", " ").split())
    return s


def read_config(path):
    """Read a flat `key = value` config file into an ExperimentConfig."""
    known = {f.name for f in fields(ExperimentConfig)}
    values = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
                key, raw = line.split("=", 1)
                key = key.strip().replace("-", "_")
                if key not in known:
                    raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
                try:
                    values[key] = _coerce(key, raw)
                except ValueError as err:
                    raise ConfigError(
                        f"{path}:{lineno}: cannot read {key} = {raw.strip()!r}: {err}"
                    ) from None
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    return ExperimentConfig(**values)


def write_config(cfg, path):
    """Write the non-None fields of a config as sorted `key = value` lines.

    The worker count is left out on purpose: results are independent of it
    by construction, so it is not part of the experiment's identity and
    outputs stay byte-identical across --threads settings.
    """
    lines = []
    for name, v in sorted(_config_echo(cfg).items()):
        kind = ExperimentConfig.__annotations__[name]
        if kind is tuple:
            v = ",".join(str(x) for x in v)
        elif kind is bool:
            v = "true" if v else "false"
        lines.append(f"{name} = {v}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _merged(file_cfg, cli_cfg):
    out = ExperimentConfig()
    for f in fields(ExperimentConfig):
        v = getattr(cli_cfg, f.name)
        if v is None and file_cfg is not None:
            v = getattr(file_cfg, f.name)
        setattr(out, f.name, v)
    return out


def _ensure_out(cfg):
    out = cfg.get("out")
    os.makedirs(out, exist_ok=True)
    return out


def _finite_or_none(value):
    """value, or None (JSON null) when it is NaN or infinite."""
    return value if math.isfinite(value) else None


def _config_echo(cfg):
    """Config as a dict for meta files, minus the worker count (which never
    changes results and would break byte-identity across --threads runs)."""
    return {
        f.name: getattr(cfg, f.name)
        for f in fields(cfg)
        if getattr(cfg, f.name) is not None and f.name != "threads"
    }


def _load_data(cfg):
    if not cfg.data:
        raise ConfigError(f"mode {cfg.mode!r} needs --data pointing at a dataset CSV")
    data = read_dataset(cfg.data)
    if cfg.model and data.model and cfg.model.lower() != data.model.lower():
        raise ConfigError(
            f"--model {cfg.model!r} does not match the dataset's model {data.model!r}"
        )
    return data


def _benchmark_for(cfg, data=None):
    name = cfg.model or (data.model if data is not None and data.model else None)
    if not name:
        raise ConfigError("no model given (--model) and the dataset does not name one")
    return make_benchmark(name)


def _read_reference_means(path, n):
    means = [row["mean"] for row in _read_csv(path, "reference file", ["mean"])]
    if len(means) < n:
        raise ConfigError(
            f"reference file {path} has {len(means)} rows, need {n}"
        )
    return np.asarray(means[:n])


def run_generate(cfg):
    if cfg.n is None:
        raise ConfigError("generate needs --n (number of observations)")
    bm = _benchmark_for(cfg)
    gl = cfg.gen_level
    if gl is None:
        gl = "exact" if bm.name in ("OU", "GBM") else "9"
    try:
        level = "exact" if str(gl) == "exact" else int(str(gl))
    except ValueError:
        raise ConfigError(f'--gen-level must be an integer or "exact", got {gl!r}') from None
    data = generate_data(bm, cfg.n, level, cfg.get("seed"))
    out = _ensure_out(cfg)
    path = os.path.join(out, "data.csv")
    write_dataset(data, path)
    return {"data": path}


def run_reference(cfg):
    data = _load_data(cfg)
    bm = _benchmark_for(cfg, data)
    out = _ensure_out(cfg)
    csv_path = os.path.join(out, "reference.csv")
    meta_path = os.path.join(out, "reference.meta.json")
    desk = cfg.get("desk")
    exact = (
        bm.name == "OU"
        and bm.observation.family == "gaussian"
        and bm.observation.link == "identity"
    )
    params = {
        "model": bm.name,
        "n": data.n,
        "kind": "kalman" if exact else "pf",
        "seed": cfg.get("seed"),
        "data_sha256": hashlib.sha256(data.y.tobytes()).hexdigest(),
    }
    if not exact:
        params["level"] = cfg.get("level", 8 if desk else 10)
        params["particles"] = cfg.get("particles", 4000 if desk else 20000)
        params["repeats"] = cfg.get("repeats", 8 if desk else 20)

    if not cfg.get("refresh") and os.path.exists(csv_path) and os.path.exists(meta_path):
        if _read_json(meta_path, "cached reference").get("params") == params:
            return {"reference": csv_path, "cached": "yes"}

    if exact:
        moments = kalman_reference(bm, data)
        rows = [
            (k + 1, float(mv[0]), float(mv[1]), 0.0)
            for k, mv in enumerate(moments)
        ]
    else:
        level = Level(params["level"])
        particles = params["particles"]
        repeats = params["repeats"]
        sched = BatchSchedule(particles)

        def work(r):
            stream = RngStream(params["seed"], (r, ROLE_REFERENCE))
            return batch_pf_run(bm, data, sched, 0, level, stream)[:, 0]

        vals = np.array(parallel_for(work, repeats, cfg.get("threads")), dtype=float)
        means = vals.mean(axis=0)
        # one repeat has no sample variance: nan, not a claim of exactness
        var = vals.var(axis=0, ddof=1) if repeats > 1 else np.full(data.n, math.nan)
        stderr = np.sqrt(var / repeats)
        rows = [
            (k + 1, float(means[k]), float(var[k]), float(stderr[k]))
            for k in range(data.n)
        ]
    _write_csv(csv_path, ["k", "mean", "var", "stderr"], rows)
    _write_meta(meta_path, {"params": params, "config": _config_echo(cfg)})
    return {"reference": csv_path}


def _build_plan(cfg, bm, single):
    n0 = cfg.get("n0", default_base_size(bm.diffusion))
    if single:
        lmax = None if cfg.get("unbounded") else cfg.get("lmax")
        return make_single_rand_plan(lmax, n0)
    if cfg.get("unbounded"):
        beta = cfg.get("beta", 1.0 if bm.diffusion.constant_diffusion else 0.5)
        return make_theory_plan(beta, cfg.get("rho"), n0)
    return make_truncated_plan(cfg.get("lmax"), n0)


def _mse_vs_cost(est, ref_final, points):
    """Partition the draw pool into disjoint groups per target M and
    return (M, groups, mse, cost) rows."""
    w = est.draws["weight"]
    x = est.draws["xi"]
    wx = w * x
    mean_cost = est.total_cost / est.m
    rows = []
    size = est.m // 2
    for _ in range(points):
        if size < 2:
            break
        groups = min(100, est.m // size)
        vals = np.array(
            [np.mean(wx[g * size : (g + 1) * size]) for g in range(groups)]
        )
        mse = float(np.mean((vals - ref_final) ** 2))
        rows.append((size, groups, mse, float(mean_cost * size)))
        size //= 2
    return rows


def run_randomized(cfg):
    single = cfg.mode == "run-single-rand"
    data = _load_data(cfg)
    bm = _benchmark_for(cfg, data)
    plan = _build_plan(cfg, bm, single)
    ref = _read_reference_means(cfg.reference, data.n) if cfg.reference else None
    m = cfg.get("m", 500 if cfg.get("desk") else 2000)
    mode = "strict" if cfg.get("strict") else "permissive"
    est = unbiased_estimate(
        plan,
        bm,
        data,
        m,
        cfg.get("seed"),
        threads=cfg.get("threads"),
        scheme=cfg.get("scheme"),
        mode=mode,
        cost_budget=cfg.cost_budget,
    )
    out = _ensure_out(cfg)
    prefix = "single_rand" if single else "unbiased"

    draws_path = os.path.join(out, f"{prefix}_draws.csv")
    d = est.draws
    _write_csv(
        draws_path,
        ["replicate", "l", "p", "xi", "weight", "cost"],
        [
            (i + 1, int(d["l"][i]), int(d["p"][i]), float(d["xi"][i]),
             float(d["weight"][i]), int(d["cost"][i]))
            for i in range(est.m)
        ],
    )

    summary_path = os.path.join(out, f"{prefix}_summary.csv")
    _write_csv(
        summary_path,
        ["n", "estimate", "stderr", "M", "total_cost"],
        [(k, v, s, est.m, est.total_cost) for k, v, s in est.summary_rows()],
    )

    exp_cost = expected_draw_cost(plan, data.n)
    meta_path = os.path.join(out, f"{prefix}_meta.json")
    _write_meta(
        meta_path,
        {
            "estimator": est.label,
            "estimate": est.value,
            "stderr": _finite_or_none(est.stderr),
            "retries": est.retries,
            "cost": {
                "total_cost": est.total_cost,
                "mean_draw_cost": est.total_cost / est.m,
                "expected_draw_cost": "inf" if math.isinf(exp_cost) else exp_cost,
                "draws": est.m,
            },
            "config": _config_echo(cfg),
        },
    )
    artifacts = {"draws": draws_path, "summary": summary_path, "meta": meta_path}

    if ref is not None:
        rows = _mse_vs_cost(est, float(ref[-1]), cfg.get("mse_points"))
        mse_path = os.path.join(out, f"{prefix}_mse_vs_cost.csv")
        _write_csv(mse_path, ["M", "groups", "mse", "cost"], rows)
        artifacts["mse_vs_cost"] = mse_path

    artifacts["plot"] = _emit_plot_script(out)
    return artifacts


def run_mlpf(cfg):
    data = _load_data(cfg)
    bm = _benchmark_for(cfg, data)
    regime = "constant" if bm.diffusion.constant_diffusion else "nonconstant"
    levels = cfg.get("levels", (1, 2, 3, 4))
    repeats = cfg.get("repeats", 50 if cfg.get("desk") else 100)
    c1 = cfg.get("c1")
    seed = cfg.get("seed")
    threads = cfg.get("threads")
    scheme = cfg.get("scheme")
    allocs = [allocate(big_l, regime, c1) for big_l in levels]
    ref = _read_reference_means(cfg.reference, data.n) if cfg.reference else None
    out = _ensure_out(cfg)

    run_rows = []
    mse_rows = []
    for alloc in allocs:
        big_l = alloc.max_level
        def work(r, alloc=alloc):
            res = mlpf_estimate(
                bm, data, alloc,
                scheme=scheme, threads=1,
                stream=RngStream(seed, (r, ROLE_MLPF)),
            )
            return res.value, res.level_values()

        values, components = zip(*parallel_for(work, repeats, threads))
        finals = np.array(values, dtype=float)
        comps = np.array(components, dtype=float)
        cost = mlpf_cost(alloc, data.n)
        for l in range(big_l + 1):
            m_l = int(alloc.sizes[l])
            cost_l = cost_of_draw(l, 0, data.n, BatchSchedule(m_l))
            run_rows.append((big_l, l, m_l, float(comps[:, l].mean()), cost_l))
        run_rows.append((big_l, "total", int(alloc.sizes.sum()), float(finals.mean()), cost))
        if ref is not None:
            mse = float(np.mean((finals - ref[-1]) ** 2))
            mse_rows.append((big_l, mse, cost, repeats))

    runs_path = os.path.join(out, "mlpf_runs.csv")
    _write_csv(runs_path, ["L", "l", "M_l", "estimate_l", "cost_l"], run_rows)
    artifacts = {"runs": runs_path}
    if mse_rows:
        mse_path = os.path.join(out, "mlpf_mse_cost.csv")
        _write_csv(mse_path, ["L", "mse", "cost", "repeats"], mse_rows)
        artifacts["mse_cost"] = mse_path
    _write_meta(
        os.path.join(out, "mlpf_meta.json"),
        {"regime": regime, "config": _config_echo(cfg)},
    )
    artifacts["meta"] = os.path.join(out, "mlpf_meta.json")
    artifacts["plot"] = _emit_plot_script(out)
    return artifacts


def run_sweep(cfg):
    repeats = cfg.get("repeats", 100)
    if repeats < 2:
        raise InvalidRate(f"a variance needs at least 2 repeats, got {repeats!r}")
    data = _load_data(cfg)
    bm = _benchmark_for(cfg, data)
    levels = cfg.get("levels", (2, 3, 4, 5, 6))
    if any(l < 1 for l in levels):
        raise InvalidLevel("variance sweeps need coupled levels l >= 1")
    particles = cfg.get("particles", 500 if cfg.get("desk") else 1000)
    seed = cfg.get("seed")
    scheme = cfg.get("scheme")
    threads = cfg.get("threads")
    out = _ensure_out(cfg)
    sched = BatchSchedule(particles)

    rows = []
    for l in levels:
        def work(r, l=l):
            stream = RngStream(seed, (r, ROLE_SWEEP, l))
            return batch_cpf_run(bm, data, sched, 0, Level(l), stream, scheme)[-1, 0]

        vals = np.array(parallel_for(work, repeats, threads), dtype=float)
        rows.append(
            (int(l), float(vals.var(ddof=1)), float(vals.mean()), repeats, particles)
        )

    path = os.path.join(out, "variance_vs_level.csv")
    _write_csv(path, ["l", "variance", "mean", "repeats", "particles"], rows)

    ls = np.array([r[0] for r in rows], dtype=float)
    lv = np.log2(np.array([r[1] for r in rows]))
    slope = float(np.polyfit(ls, lv, 1)[0]) if len(rows) > 1 else math.nan
    meta = os.path.join(out, "variance_meta.json")
    _write_meta(
        meta,
        {"log2_variance_slope": _finite_or_none(slope), "scheme": scheme,
         "config": _config_echo(cfg)},
    )
    return {"variance": path, "meta": meta, "plot": _emit_plot_script(out)}


def _read_mse_cost(path):
    pts = [
        (row.get("L") or row.get("M"), row["mse"], row["cost"])
        for row in _read_csv(path, "curve file", ["mse", "cost"])
    ]
    if not pts:
        raise ConfigError(f"curve file {path} is empty")
    return pts


def compare_cost_ratio(unbiased_points, mlpf_points):
    """Cost ratio of the randomized estimator to the multilevel baseline.

    For each baseline point (label, mse, cost), the randomized curve's cost
    at the same MSE is found by linear interpolation in log-log space; the
    ratio is interp_cost / baseline_cost. Points whose MSE lies outside the
    randomized curve's range are dropped; if none remain a
    NonOverlappingRange is raised. Returns (rows, average) with rows
    (label, mse, baseline_cost, interpolated_cost, ratio), averaged over at
    most the last four rows (the finest baseline levels).
    """
    u = sorted(
        ((mse, cost) for _, mse, cost in unbiased_points if mse > 0 and cost > 0),
        key=lambda t: t[0],
    )
    if len(u) < 2:
        raise NonOverlappingRange("the randomized curve needs at least two points")
    log_mse = np.log(np.array([t[0] for t in u]))
    log_cost = np.log(np.array([t[1] for t in u]))

    rows = []
    for label, mse, cost in mlpf_points:
        if mse <= 0 or cost <= 0:
            continue
        lm = math.log(mse)
        if lm < log_mse[0] or lm > log_mse[-1]:
            continue
        interp = math.exp(float(np.interp(lm, log_mse, log_cost)))
        rows.append((label, mse, cost, interp, interp / cost))
    if not rows:
        raise NonOverlappingRange(
            "no baseline MSE falls inside the randomized curve's MSE range"
        )
    rows = rows[-4:]
    avg = float(np.mean([r[4] for r in rows]))
    return rows, avg


def run_compare(cfg):
    if not cfg.unbiased or not cfg.mlpf:
        raise ConfigError("compare needs --unbiased and --mlpf curve files")
    u_pts = _read_mse_cost(cfg.unbiased)
    m_pts = _read_mse_cost(cfg.mlpf)
    rows, avg = compare_cost_ratio(u_pts, m_pts)
    out = _ensure_out(cfg)
    path = os.path.join(out, "cost_ratio.csv")
    rows.append(("average", "", "", "", avg))
    _write_csv(path, ["L", "mse", "mlpf_cost", "randomized_cost", "ratio"], rows)
    return {"cost_ratio": path, "average_ratio": f"{avg:.4g}", "plot": _emit_plot_script(out)}


_PLOT_SCRIPT = '''"""Plot whatever result CSVs sit next to this script.

Needs matplotlib; run `python3 plot_results.py` inside the results
directory. Each available CSV becomes one figure saved as PNG.
"""

import csv
import os

import matplotlib

matplotlib.use("Agg")
import matplotlib.pyplot as plt

HERE = os.path.dirname(os.path.abspath(__file__))


def read(name):
    path = os.path.join(HERE, name)
    if not os.path.exists(path):
        return None
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def numeric(rows, col):
    out = []
    for r in rows:
        try:
            out.append(float(r[col]))
        except (KeyError, TypeError, ValueError):
            out.append(None)
    return out


for prefix in ("unbiased", "single_rand"):
    rows = read(prefix + "_mse_vs_cost.csv")
    if rows:
        cost = numeric(rows, "cost")
        mse = numeric(rows, "mse")
        plt.figure()
        plt.loglog(cost, mse, "o-")
        plt.xlabel("cost (Euler steps)")
        plt.ylabel("MSE")
        plt.title(prefix.replace("_", " ") + " estimator")
        plt.grid(True, which="both", alpha=0.3)
        plt.savefig(os.path.join(HERE, prefix + "_mse_vs_cost.png"), dpi=150)

rows = read("mlpf_mse_cost.csv")
if rows:
    cost = numeric(rows, "cost")
    mse = numeric(rows, "mse")
    plt.figure()
    plt.loglog(cost, mse, "s-")
    plt.xlabel("cost (Euler steps)")
    plt.ylabel("MSE")
    plt.title("multilevel particle filter")
    plt.grid(True, which="both", alpha=0.3)
    plt.savefig(os.path.join(HERE, "mlpf_mse_cost.png"), dpi=150)

rows = read("variance_vs_level.csv")
if rows:
    ls = numeric(rows, "l")
    var = numeric(rows, "variance")
    plt.figure()
    plt.semilogy(ls, var, "o-")
    plt.xlabel("level l")
    plt.ylabel("increment variance")
    plt.title("coupled increment variance by level")
    plt.grid(True, which="both", alpha=0.3)
    plt.savefig(os.path.join(HERE, "variance_vs_level.png"), dpi=150)

rows = read("cost_ratio.csv")
if rows:
    body = [r for r in rows if r["L"] != "average"]
    ls = [r["L"] for r in body]
    ratio = numeric(body, "ratio")
    plt.figure()
    plt.plot(range(len(ls)), ratio, "o-")
    plt.xticks(range(len(ls)), ls)
    plt.xlabel("baseline point")
    plt.ylabel("cost ratio")
    plt.title("randomized / multilevel cost at matched MSE")
    plt.grid(True, alpha=0.3)
    plt.savefig(os.path.join(HERE, "cost_ratio.png"), dpi=150)

print("wrote figures next to the CSVs in", HERE)
'''


def _emit_plot_script(out):
    path = os.path.join(out, "plot_results.py")
    with open(path, "w") as fh:
        fh.write(_PLOT_SCRIPT)
    return path


def run_experiment(cfg):
    """Dispatch a resolved config to its mode runner; returns artifact paths."""
    mode = cfg.mode
    check_threads(cfg.get("threads"))
    check_scheme(cfg.get("scheme"))
    if cfg.get("repeats", 1) < 1:
        raise InvalidRate(f"repeats must be at least 1, got {cfg.repeats!r}")
    if mode == "generate":
        result = run_generate(cfg)
    elif mode == "reference":
        result = run_reference(cfg)
    elif mode in ("run-unbiased", "run-single-rand"):
        result = run_randomized(cfg)
    elif mode == "run-mlpf":
        result = run_mlpf(cfg)
    elif mode == "sweep-variance":
        result = run_sweep(cfg)
    elif mode == "compare":
        result = run_compare(cfg)
    else:
        raise ConfigError(f"unknown mode {mode!r}")
    out = cfg.get("out")
    if os.path.isdir(out):
        write_config(cfg, os.path.join(out, "run_config.txt"))
    return result


def _build_parser():
    """One subparser per subcommand, with --config and a flag for each
    ExperimentConfig field that the subcommand's runner reads."""
    parser = argparse.ArgumentParser(
        prog="unbiasedpf",
        description="Randomized multilevel particle filter experiments.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    def levels(text):
        return _coerce("levels", text)

    for mode, text in _SUBCOMMANDS.items():
        # no abbreviations: run-unbiased --n must not be read as --n0
        sp = sub.add_parser(mode, help=text, allow_abbrev=False)
        sp.add_argument("--config", help="flat key = value config file; flags override it")
        for f in fields(ExperimentConfig):
            meta = f.metadata
            if mode not in meta.get("modes", ()):
                continue
            flag = "--" + f.name.replace("_", "-")
            if f.name == "strict":
                group = sp.add_mutually_exclusive_group()
                group.add_argument(flag, action="store_true", default=None, help=meta["help"])
                group.add_argument("--permissive", dest="strict", action="store_false",
                                   default=None, help="retry failed draws on fresh sub-streams")
            elif f.type is bool:
                sp.add_argument(flag, action="store_true", default=None, help=meta["help"])
            else:
                sp.add_argument(flag, type=levels if f.type is tuple else f.type,
                                choices=meta["choices"], help=meta["help"])
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse reserves status 2 for usage errors; here 2 means a
        # numerical failure, so usage problems are remapped to 1.
        if err.code not in (0, None):
            return 1
        return 0

    ns = vars(args)
    config_path = ns.pop("config")
    try:
        file_cfg = read_config(config_path) if config_path else None
        cfg = _merged(file_cfg, ExperimentConfig(**ns))
        plan = "unbounded" if cfg.get("unbounded") else "truncated"
        for name in ("lmax",) if plan == "unbounded" else ("beta", "rho"):
            if ns.get(name) is not None:  # a config file's key is echoed instead
                raise ConfigError(f"the {plan} plan does not read --{name}")
        artifacts = run_experiment(cfg)
    except _NUMERICAL_ERRORS as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2
    except _CONFIG_ERRORS as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 3

    for name, path in artifacts.items():
        print(f"{name}: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
