"""Config handling, subcommand runners, artifacts and exit codes."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from unbiasedpf import cli
from unbiasedpf.cli import (
    ExperimentConfig,
    _merged,
    compare_cost_ratio,
    main,
    read_config,
    run_experiment,
    write_config,
)
from unbiasedpf.errors import ConfigError, InvalidRate, NonOverlappingRange
from unbiasedpf.mlpf import allocate, mlpf_cost
from unbiasedpf.observation import _read_csv, _write_csv, read_dataset


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _generate(tmp_path, model="OU", n=3, seed=7, sub="data", **kw):
    out = tmp_path / sub
    cfg = ExperimentConfig(mode="generate", model=model, n=n, seed=seed,
                           out=str(out), **kw)
    return run_experiment(cfg)["data"]


def test_config_round_trip(tmp_path):
    cfg = ExperimentConfig(
        mode="run-unbiased", model="OU", n=5, seed=3, threads=4,
        desk=True, strict=False, levels=(1, 2, 3), rho=0.75, out="results",
    )
    path = tmp_path / "cfg.txt"
    write_config(cfg, path)
    back = read_config(path)
    assert back.model == "OU" and back.n == 5 and back.seed == 3
    assert back.desk is True and back.strict is False
    assert back.levels == (1, 2, 3)
    assert back.rho == 0.75
    # the thread count never changes results, so it is not persisted
    assert back.threads is None
    assert "threads" not in path.read_text()


def test_read_config_parses_comments_and_blank_lines(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("# a comment\n\nmodel = GBM  # trailing\nlmax = 3\nlevels = 2 4\n")
    cfg = read_config(path)
    assert cfg.model == "GBM" and cfg.lmax == 3 and cfg.levels == (2, 4)


def test_read_config_rejects_bad_files(tmp_path):
    bad_key = tmp_path / "a.txt"
    bad_key.write_text("modle = OU\n")
    with pytest.raises(ConfigError):
        read_config(bad_key)

    no_eq = tmp_path / "b.txt"
    no_eq.write_text("model OU\n")
    with pytest.raises(ConfigError):
        read_config(no_eq)

    bad_bool = tmp_path / "c.txt"
    bad_bool.write_text("desk = maybe\n")
    with pytest.raises(ConfigError):
        read_config(bad_bool)

    with pytest.raises(ConfigError):
        read_config(tmp_path / "missing.txt")


@pytest.mark.parametrize("key,raw", [("seed", "seven"), ("c1", "1.5x"), ("levels", "1,x")])
def test_read_config_names_the_line_key_and_value_it_cannot_read(tmp_path, key, raw):
    path = tmp_path / "cfg.txt"
    path.write_text(f"model = OU\n{key} = {raw}\n")
    with pytest.raises(ConfigError) as info:
        read_config(path)
    assert f"{path}:2:" in str(info.value)
    assert f"{key} = {raw!r}" in str(info.value)


def test_cli_flags_override_config_file():
    file_cfg = ExperimentConfig(model="OU", n=4, seed=5)
    cli_cfg = ExperimentConfig(n=9)
    merged = _merged(file_cfg, cli_cfg)
    assert merged.n == 9
    assert merged.model == "OU" and merged.seed == 5


def test_generate_is_reproducible(tmp_path):
    p1 = _generate(tmp_path, seed=12, sub="a")
    p2 = _generate(tmp_path, seed=12, sub="b")
    p3 = _generate(tmp_path, seed=13, sub="c")
    assert open(p1, "rb").read() == open(p2, "rb").read()
    assert open(p1, "rb").read() != open(p3, "rb").read()
    data = read_dataset(p1)
    assert data.n == 3 and data.model == "OU"
    assert os.path.exists(os.path.join(os.path.dirname(p1), "run_config.txt"))


def test_generate_needs_n():
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig(mode="generate", model="OU"))


def test_reference_kalman_and_cache(tmp_path):
    data = _generate(tmp_path)
    out = tmp_path / "ref"
    cfg = ExperimentConfig(mode="reference", data=data, out=str(out))
    first = run_experiment(cfg)
    assert "cached" not in first
    rows = _read_rows(first["reference"])
    assert len(rows) == 3
    assert all(float(r["stderr"]) == 0.0 for r in rows)
    meta = json.load(open(out / "reference.meta.json"))
    assert meta["params"]["kind"] == "kalman"

    again = run_experiment(cfg)
    assert again.get("cached") == "yes"
    refreshed = run_experiment(
        ExperimentConfig(mode="reference", data=data, out=str(out), refresh=True)
    )
    assert "cached" not in refreshed


def test_reference_pf_branch(tmp_path):
    data = _generate(tmp_path, model="NLD")
    out = tmp_path / "ref"
    cfg = ExperimentConfig(mode="reference", data=data, out=str(out),
                           level=3, particles=100, repeats=3)
    res = run_experiment(cfg)
    rows = _read_rows(res["reference"])
    assert len(rows) == 3
    assert all(float(r["stderr"]) > 0.0 for r in rows)
    meta = json.load(open(out / "reference.meta.json"))
    assert meta["params"]["kind"] == "pf"
    assert meta["params"]["particles"] == 100

    # a different resolution is a different reference, so no cache hit
    res2 = run_experiment(
        ExperimentConfig(mode="reference", data=data, out=str(out),
                         level=3, particles=150, repeats=3)
    )
    assert "cached" not in res2

    # new data in the same place is a different reference, so no cache hit
    data = _generate(tmp_path, model="NLD", seed=8)
    res3 = run_experiment(
        ExperimentConfig(mode="reference", data=data, out=str(out),
                         level=3, particles=150, repeats=3)
    )
    assert "cached" not in res3


def test_reference_of_one_repeat_claims_no_precision(tmp_path):
    # one repeat has no sample variance: var and stderr are nan, not 0.0
    data = _generate(tmp_path, model="NLD")
    res = run_experiment(ExperimentConfig(mode="reference", data=data,
                                          out=str(tmp_path / "ref"), level=3,
                                          particles=100, repeats=1))
    rows = _read_rows(res["reference"])
    assert len(rows) == 3
    assert all(np.isfinite(float(r["mean"])) for r in rows)
    assert all(r["var"] == "nan" and r["stderr"] == "nan" for r in rows)


def _strict_json(path):
    def refuse(name):
        raise ValueError(f"{path} holds the non-JSON constant {name}")
    with open(path) as fh:
        return json.load(fh, parse_constant=refuse)


@pytest.mark.parametrize("mode", ["run-unbiased", "run-single-rand"])
def test_one_draw_meta_is_strict_json(tmp_path, mode):
    # one draw has no standard error: the meta file says null, not NaN
    data = _generate(tmp_path)
    out = tmp_path / "run"
    assert main([mode, "--data", data, "--m", "1", "--lmax", "2",
                 "--out", str(out)]) == 0
    prefix = "unbiased" if mode == "run-unbiased" else "single_rand"
    meta = _strict_json(out / f"{prefix}_meta.json")
    assert meta["stderr"] is None
    assert meta["cost"]["draws"] == 1


def test_one_level_sweep_meta_is_strict_json(tmp_path):
    # one level gives no slope: null, not NaN
    data = _generate(tmp_path)
    res = run_experiment(ExperimentConfig(mode="sweep-variance", data=data,
                                          out=str(tmp_path / "s"), levels=(1,),
                                          particles=30, repeats=3, seed=4))
    assert _strict_json(res["meta"])["log2_variance_slope"] is None


def test_write_meta_refuses_nan_before_opening(tmp_path):
    path = tmp_path / "meta.json"
    with pytest.raises(ValueError):
        cli._write_meta(str(path), {"stderr": float("nan")})
    assert not path.exists()


def test_reference_pf_branch_is_thread_independent(tmp_path):
    data = _generate(tmp_path, model="NLD")
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"ref{threads}"
        assert main(["reference", "--data", data, "--out", str(out), "--level", "2",
                     "--particles", "50", "--repeats", "4", "--threads", threads]) == 0
        outs.append((out / "reference.csv").read_bytes())
    assert outs[0] == outs[1]


def test_run_unbiased_artifacts(tmp_path):
    data = _generate(tmp_path)
    ref = run_experiment(
        ExperimentConfig(mode="reference", data=data, out=str(tmp_path / "ref"))
    )["reference"]
    out = tmp_path / "run"
    cfg = ExperimentConfig(
        mode="run-unbiased", data=data, out=str(out),
        lmax=1, m=30, n0=4, seed=2, reference=ref,
    )
    res = run_experiment(cfg)

    draws = _read_rows(res["draws"])
    assert len(draws) == 30
    meta = json.load(open(res["meta"]))
    recomputed = np.mean(
        [float(r["weight"]) * float(r["xi"]) for r in draws]
    )
    assert meta["estimate"] == pytest.approx(recomputed, rel=1e-12)
    assert meta["estimator"] == "bias-controlled"
    assert meta["cost"]["total_cost"] == sum(int(r["cost"]) for r in draws)
    assert meta["config"]["lmax"] == 1 and "threads" not in meta["config"]

    summary = _read_rows(res["summary"])
    assert len(summary) == 3
    assert float(summary[-1]["estimate"]) == pytest.approx(meta["estimate"], rel=1e-12)

    curve = _read_rows(res["mse_vs_cost"])
    assert len(curve) >= 2
    assert {"M", "groups", "mse", "cost"} <= set(curve[0])
    assert os.path.exists(res["plot"])
    assert (out / "run_config.txt").exists()


def test_run_single_rand_artifacts(tmp_path):
    data = _generate(tmp_path)
    out = tmp_path / "run"
    cfg = ExperimentConfig(mode="run-single-rand", data=data, out=str(out),
                           lmax=2, m=20, n0=4, seed=2)
    res = run_experiment(cfg)
    draws = _read_rows(res["draws"])
    assert len(draws) == 20
    # single randomization couples level l to itself, so p echoes l
    assert all(r["l"] == r["p"] for r in draws)
    # the label tracks bias control, which a truncated plan does not give
    meta = json.load(open(res["meta"]))
    assert meta["estimator"] == "bias-controlled"


def test_run_mlpf_artifacts(tmp_path):
    data = _generate(tmp_path)
    ref = run_experiment(
        ExperimentConfig(mode="reference", data=data, out=str(tmp_path / "ref"))
    )["reference"]
    out = tmp_path / "run"
    cfg = ExperimentConfig(mode="run-mlpf", data=data, out=str(out),
                           levels=(1, 2), repeats=3, seed=4, reference=ref)
    res = run_experiment(cfg)

    rows = _read_rows(res["runs"])
    # per maximum level: one row per component plus a total row
    assert len(rows) == (2 + 1) + (3 + 1)
    totals = [r for r in rows if r["l"] == "total"]
    assert [r["L"] for r in totals] == ["1", "2"]

    mse = _read_rows(res["mse_cost"])
    assert len(mse) == 2
    regime = json.load(open(res["meta"]))["regime"]
    assert regime == "constant"
    alloc = allocate(2, regime)
    assert int(mse[1]["cost"]) == mlpf_cost(alloc, 3)


def test_sweep_artifacts(tmp_path):
    data = _generate(tmp_path)
    out = tmp_path / "run"
    cfg = ExperimentConfig(mode="sweep-variance", data=data, out=str(out),
                           levels=(1, 2), particles=60, repeats=6, seed=4)
    res = run_experiment(cfg)
    rows = _read_rows(res["variance"])
    assert [r["l"] for r in rows] == ["1", "2"]
    assert all(float(r["variance"]) > 0 for r in rows)
    meta = json.load(open(res["meta"]))
    assert isinstance(meta["log2_variance_slope"], float)


def test_compare_cost_ratio_interpolation():
    u = [(str(m), 10.0 ** (-k), 10.0 ** k) for k, m in enumerate((8, 4, 2, 1), 2)]
    same = [("1", 10.0 ** (-k), 10.0 ** k) for k in (3, 4)]
    rows, avg = compare_cost_ratio(u, same)
    assert avg == pytest.approx(1.0, rel=1e-12)

    cheaper = [("1", 3e-4, 0.5 / 3e-4)]
    rows, avg = compare_cost_ratio(u, cheaper)
    assert avg == pytest.approx(2.0, rel=1e-12)
    assert rows[0][3] == pytest.approx(1.0 / 3e-4, rel=1e-12)


def test_compare_cost_ratio_drops_outside_points():
    u = [("a", 1e-4, 1e4), ("b", 1e-2, 1e2)]
    mixed = [("hi", 1.0, 1.0), ("in", 1e-3, 5e2), ("lo", 1e-9, 1e9)]
    rows, avg = compare_cost_ratio(u, mixed)
    assert [r[0] for r in rows] == ["in"]
    assert avg == pytest.approx(2.0, rel=1e-12)

    with pytest.raises(NonOverlappingRange):
        compare_cost_ratio(u, [("hi", 1.0, 1.0)])
    with pytest.raises(NonOverlappingRange):
        compare_cost_ratio(u[:1], mixed)


def test_compare_cost_ratio_averages_last_rows():
    # five baseline points: the average is over the last four, which
    # leaves out the first point's ratio of 8
    u = [("a", 1e-7, 1e7), ("b", 1e-1, 1e1)]
    pts = [("p%d" % k, 10.0 ** (-k), c * 10.0 ** k)
           for k, c in zip(range(2, 7), (0.125, 0.5, 0.5, 0.5, 0.5))]
    rows, avg = compare_cost_ratio(u, pts)
    assert [r[0] for r in rows] == ["p3", "p4", "p5", "p6"]
    assert avg == pytest.approx(2.0, rel=1e-12)


def _write_curves(tmp_path):
    # a randomized and a multilevel MSE-vs-cost curve that overlap
    upath, mpath = tmp_path / "u.csv", tmp_path / "m.csv"
    with open(upath, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["M", "groups", "mse", "cost"])
        for k in (2, 3, 4, 5):
            w.writerow([2 ** k, 10, repr(10.0 ** (-k)), repr(10.0 ** k)])
    with open(mpath, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["L", "mse", "cost", "repeats"])
        w.writerow([3, repr(1e-3), repr(2e3), 5])
    return str(upath), str(mpath)


def test_run_compare_writes_ratio_table(tmp_path):
    upath, mpath = _write_curves(tmp_path)

    out = tmp_path / "cmp"
    res = run_experiment(
        ExperimentConfig(mode="compare", unbiased=upath, mlpf=mpath, out=str(out))
    )
    rows = _read_rows(res["cost_ratio"])
    assert rows[-1]["L"] == "average"
    assert float(rows[-1]["ratio"]) == pytest.approx(0.5, rel=1e-12)
    assert res["average_ratio"] == "0.5"

    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig(mode="compare", unbiased=upath))


_STUB_PYPLOT = """
def savefig(path, **kwargs):
    open(path, "w").close()


def __getattr__(name):
    return lambda *args, **kwargs: None
"""


def test_plot_script_draws_one_figure_per_result_csv(tmp_path):
    # matplotlib is stubbed, since it need not be installed: every pyplot
    # call does nothing, except that savefig creates its file
    stub = tmp_path / "stub" / "matplotlib"
    stub.mkdir(parents=True)
    (stub / "__init__.py").write_text("def use(*args, **kwargs):\n    pass\n")
    (stub / "pyplot.py").write_text(_STUB_PYPLOT)
    data = _generate(tmp_path)
    ref = run_experiment(
        ExperimentConfig(mode="reference", data=data, out=str(tmp_path / "ref"))
    )["reference"]
    upath, mpath = _write_curves(tmp_path)
    runs = [
        (ExperimentConfig(mode="run-unbiased", data=data, lmax=1, m=30, n0=4, seed=2,
                          reference=ref), ["unbiased_mse_vs_cost.png"]),
        (ExperimentConfig(mode="run-mlpf", data=data, levels=(1, 2), repeats=3, seed=4,
                          reference=ref), ["mlpf_mse_cost.png"]),
        (ExperimentConfig(mode="sweep-variance", data=data, levels=(1, 2), particles=20,
                          repeats=3, seed=4), ["variance_vs_level.png"]),
        (ExperimentConfig(mode="compare", unbiased=upath, mlpf=mpath), ["cost_ratio.png"]),
    ]
    env = dict(os.environ, PYTHONPATH=str(stub.parent))
    for i, (cfg, pngs) in enumerate(runs):
        cfg.out = str(tmp_path / f"out{i}")
        plot = run_experiment(cfg)["plot"]
        assert plot == os.path.join(cfg.out, "plot_results.py")
        done = subprocess.run([sys.executable, plot], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert sorted(f for f in os.listdir(cfg.out) if f.endswith(".png")) == pngs


def test_unknown_mode_rejected():
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig(mode="frobnicate"))


def test_main_success_and_artifact_listing(tmp_path, capsys):
    out = tmp_path / "gen"
    code = main(["generate", "--model", "OU", "--n", "3", "--seed", "7",
                 "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "data:" in printed and str(out) in printed


def test_worker_processes_print_nothing(tmp_path, capfd):
    # forked workers leave without flushing stdio or returning into main();
    # capfd also sees what a worker writes to the inherited file descriptor
    data = _generate(tmp_path)
    capfd.readouterr()
    out = tmp_path / "run"
    assert main(["run-unbiased", "--data", data, "--lmax", "1", "--m", "20",
                 "--n0", "4", "--threads", "2", "--out", str(out)]) == 0
    lines = capfd.readouterr().out.splitlines()
    assert len(lines) == len(set(lines)) == 4
    assert f"draws: {out / 'unbiased_draws.csv'}" in lines


def test_main_config_file_with_flag_override(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(f"model = OU\nn = 4\nseed = 9\nout = {tmp_path / 'a'}\n")
    assert main(["generate", "--config", str(cfg_path)]) == 0
    assert read_dataset(str(tmp_path / "a" / "data.csv")).n == 4

    assert main(["generate", "--config", str(cfg_path), "--n", "6",
                 "--out", str(tmp_path / "b")]) == 0
    assert read_dataset(str(tmp_path / "b" / "data.csv")).n == 6
    capsys.readouterr()


def test_main_exit_code_for_config_problems(tmp_path, capsys):
    assert main(["generate", "--model", "Heston", "--n", "3",
                 "--out", str(tmp_path / "x")]) == 1
    data = _generate(tmp_path, model="OU")
    assert main(["run-unbiased", "--data", data, "--model", "GBM",
                 "--out", str(tmp_path / "y")]) == 1
    capsys.readouterr()


def test_main_rejects_unknown_scheme_from_config(tmp_path, capsys):
    # a level-0 run starts no coupled filter; the scheme is still checked
    data = _generate(tmp_path)
    cfg_path = tmp_path / "c.txt"
    cfg_path.write_text(f"scheme = antithetic\nlmax = 0\nm = 4\ndata = {data}\n")
    out = tmp_path / "run"
    assert main(["run-unbiased", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert not (out / "run_config.txt").exists()
    assert "antithetic" in capsys.readouterr().err


def test_main_exit_code_for_usage_errors(tmp_path, capsys):
    data = _generate(tmp_path)
    assert main(["run-unbiased", "--bogus-flag"]) == 1
    assert main(["run-mlpf", "--levels", "1,x"]) == 1
    assert main(["run-unbiased", "--threads", "0"]) == 1
    assert main(["reference", "--threads", "-1"]) == 1
    assert main(["sweep-variance", "--repeats", "0"]) == 1
    # one repeat has no sample variance: refused before anything runs
    capsys.readouterr()
    assert main(["sweep-variance", "--data", data, "--repeats", "1",
                 "--out", str(tmp_path / "s")]) == 1
    assert "at least 2 repeats" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()
    assert main([]) == 1
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_main_exit_code_for_numerical_failures(tmp_path, capsys):
    data = _generate(tmp_path)
    code = main(["sweep-variance", "--data", data, "--levels", "0,1",
                 "--particles", "20", "--repeats", "2",
                 "--out", str(tmp_path / "s")])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


def test_every_level_is_checked_before_the_first_runs(tmp_path, monkeypatch, capsys):
    # a bad entry anywhere in --levels fails before any level is filtered
    # and before the output directory is made
    data = _generate(tmp_path)

    def no_filter(*args, **kwargs):
        raise AssertionError("a level ran before every level was checked")

    monkeypatch.setattr(cli, "mlpf_estimate", no_filter)
    monkeypatch.setattr(cli, "batch_cpf_run", no_filter)
    assert main(["run-mlpf", "--data", data, "--levels", "4,-1", "--repeats", "2",
                 "--out", str(tmp_path / "m")]) == 1
    assert "max_level" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()
    assert main(["sweep-variance", "--data", data, "--levels", "6,0", "--particles", "20",
                 "--repeats", "2", "--out", str(tmp_path / "s")]) == 2
    assert "coupled levels" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def _write_text(path, text):
    path.write_text(text)
    return str(path)


def test_malformed_data_files_are_configuration_errors(tmp_path, capsys):
    # a data file without a y column, or with a header and no rows, exits 1
    # naming the file, before any output directory is made
    no_y = _write_text(tmp_path / "no_y.csv", "k,x\n1,0.5\n")
    empty = _write_text(tmp_path / "empty.csv", "k,y\n")
    short = _write_text(tmp_path / "short.csv", "k,y\n1,0.5\n2\n")
    cases = [
        (["reference", "--model", "OU", "--data", no_y], no_y),
        (["reference", "--model", "OU", "--data", short], short),
        (["reference", "--model", "OU", "--data", empty], empty),
        (["run-unbiased", "--model", "OU", "--data", empty, "--m", "4", "--lmax", "1"], empty),
        (["run-single-rand", "--model", "OU", "--data", no_y, "--m", "4", "--lmax", "1"], no_y),
        (["run-mlpf", "--model", "OU", "--data", empty, "--levels", "1",
          "--repeats", "2"], empty),
    ]
    for i, (argv, path) in enumerate(cases):
        out = tmp_path / f"out{i}"
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and path in err
        assert not out.exists()


def test_malformed_reference_and_curve_files_are_configuration_errors(tmp_path, capsys):
    data = _generate(tmp_path)
    no_mean = _write_text(tmp_path / "ref.csv", "k,var\n1,0.1\n2,0.1\n3,0.1\n")
    short_ref = _write_text(tmp_path / "short_ref.csv", "k,mean\n1,0.1\n2\n3,0.1\n")
    no_mse = _write_text(tmp_path / "curve.csv", "L,cost\n1,10.0\n")
    empty_mse = _write_text(tmp_path / "empty.csv", "L,mse,cost\n1,0.1,10.0\n2,,20.0\n")
    good = _write_text(tmp_path / "good.csv", "M,mse,cost\n4,0.1,10.0\n2,0.2,5.0\n")
    cases = [
        (["run-unbiased", "--data", data, "--m", "4", "--lmax", "1",
          "--reference", no_mean], no_mean, "'mean'"),
        (["run-mlpf", "--data", data, "--levels", "1", "--repeats", "2",
          "--reference", no_mean], no_mean, "'mean'"),
        (["run-unbiased", "--data", data, "--m", "4", "--lmax", "1",
          "--reference", short_ref], short_ref + ", line 3", "could not convert"),
        (["compare", "--unbiased", good, "--mlpf", no_mse], no_mse, "'mse'"),
        (["compare", "--unbiased", good, "--mlpf", empty_mse], empty_mse + ", line 3",
         "could not convert"),
        (["compare", "--unbiased", no_mse, "--mlpf", good], no_mse, "'mse'"),
    ]
    for i, (argv, path, column) in enumerate(cases):
        out = tmp_path / f"out{i}"
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and column in err and path in err
        assert not out.exists()


def test_main_exit_code_for_io_failures(tmp_path, capsys):
    code = main(["compare", "--unbiased", str(tmp_path / "nope.csv"),
                 "--mlpf", str(tmp_path / "nope2.csv"),
                 "--out", str(tmp_path / "c")])
    assert code == 3
    assert "i/o error" in capsys.readouterr().err


# every option each subcommand's runner reads, as (flag, value or None for
# a switch, the field's parsed value)
_READ_OPTIONS = {
    "generate": [("--model", "OU", "OU"), ("--n", "4", 4), ("--seed", "3", 3),
                 ("--gen-level", "exact", "exact")],
    "reference": [("--data", "d.csv", "d.csv"), ("--model", "NLD", "NLD"), ("--seed", "3", 3),
                  ("--desk", None, True), ("--level", "5", 5), ("--particles", "40", 40),
                  ("--repeats", "2", 2), ("--refresh", None, True)],
    "run-unbiased": [("--data", "d.csv", "d.csv"), ("--model", "OU", "OU"), ("--seed", "3", 3),
                     ("--desk", None, True), ("--permissive", None, False),
                     ("--scheme", "maximal", "maximal"), ("--lmax", "3", 3), ("--m", "20", 20),
                     ("--n0", "4", 4), ("--beta", "0.5", 0.5), ("--rho", "0.75", 0.75),
                     ("--unbounded", None, True), ("--cost-budget", "900", 900),
                     ("--reference", "r.csv", "r.csv"), ("--mse-points", "5", 5)],
    "run-single-rand": [("--data", "d.csv", "d.csv"), ("--model", "OU", "OU"),
                        ("--seed", "3", 3), ("--desk", None, True), ("--strict", None, True),
                        ("--scheme", "maximal", "maximal"), ("--lmax", "3", 3),
                        ("--m", "20", 20), ("--n0", "4", 4), ("--unbounded", None, True),
                        ("--cost-budget", "900", 900), ("--reference", "r.csv", "r.csv"),
                        ("--mse-points", "5", 5)],
    "run-mlpf": [("--data", "d.csv", "d.csv"), ("--model", "OU", "OU"), ("--seed", "3", 3),
                 ("--desk", None, True), ("--scheme", "maximal", "maximal"),
                 ("--levels", "1,2", (1, 2)), ("--repeats", "2", 2), ("--c1", "0.5", 0.5),
                 ("--reference", "r.csv", "r.csv")],
    "sweep-variance": [("--data", "d.csv", "d.csv"), ("--model", "OU", "OU"),
                       ("--seed", "3", 3), ("--desk", None, True),
                       ("--scheme", "maximal", "maximal"), ("--levels", "1,2", (1, 2)),
                       ("--repeats", "2", 2), ("--particles", "40", 40)],
    "compare": [("--unbiased", "u.csv", "u.csv"), ("--mlpf", "m.csv", "m.csv")],
}


@pytest.mark.parametrize("mode", sorted(_READ_OPTIONS))
def test_each_subcommand_takes_the_options_its_runner_reads(mode):
    # besides --config, --out and --threads, which every subcommand takes
    argv, want = [mode, "--config", "c.txt", "--out", "o", "--threads", "2"], {}
    for flag, raw, value in _READ_OPTIONS[mode]:
        argv += [flag] if raw is None else [flag, raw]
        want["strict" if flag == "--permissive" else flag[2:].replace("-", "_")] = value
    args = cli._build_parser().parse_args(argv)
    assert vars(args) == {"mode": mode, "config": "c.txt", "out": "o", "threads": 2, **want}


_UNREAD_OPTIONS = [
    ("generate", ["--desk"]), ("generate", ["--scheme", "maximal"]),
    ("generate", ["--strict"]), ("generate", ["--permissive"]),
    ("reference", ["--n", "20"]), ("reference", ["--scheme", "maximal"]),
    ("reference", ["--strict"]), ("reference", ["--permissive"]),
    ("run-unbiased", ["--n", "20"]),
    ("run-single-rand", ["--n", "20"]), ("run-single-rand", ["--beta", "0.5"]),
    ("run-single-rand", ["--rho", "0.5"]),
    ("run-mlpf", ["--n", "20"]), ("run-mlpf", ["--strict"]), ("run-mlpf", ["--permissive"]),
    ("sweep-variance", ["--n", "20"]), ("sweep-variance", ["--strict"]),
    ("sweep-variance", ["--permissive"]),
    ("compare", ["--model", "OU"]), ("compare", ["--n", "20"]), ("compare", ["--seed", "2"]),
    ("compare", ["--desk"]), ("compare", ["--scheme", "maximal"]), ("compare", ["--strict"]),
    ("compare", ["--permissive"]),
]


def test_options_a_subcommand_does_not_read_are_refused(tmp_path, capsys):
    # run-unbiased --n is not taken for --n0 either: no abbreviations
    for i, (mode, extra) in enumerate(_UNREAD_OPTIONS):
        out = tmp_path / f"out{i}"
        assert main([mode, *extra, "--out", str(out)]) == 1, (mode, extra)
        assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err
        assert not out.exists()


def test_config_files_take_keys_the_subcommand_does_not_read(tmp_path, capsys):
    data = _generate(tmp_path)
    cfg_path = tmp_path / "c.txt"
    cfg_path.write_text(f"data = {data}\nlevels = 1,2\nscheme = maximal\nn = 20\n")
    out = tmp_path / "ref"
    assert main(["reference", "--config", str(cfg_path), "--out", str(out)]) == 0
    meta = json.load(open(out / "reference.meta.json"))
    assert meta["params"]["kind"] == "kalman"
    assert {"levels", "scheme", "n"} <= set(meta["config"])
    capsys.readouterr()


def test_plan_flags_the_plan_does_not_read_are_refused(tmp_path, capsys):
    data = _generate(tmp_path)
    unbounded = tmp_path / "unbounded.txt"
    unbounded.write_text("unbounded = true\n")
    cases = [("run-unbiased", ["--unbounded", "--lmax", "9"], "--lmax"),
             ("run-single-rand", ["--unbounded", "--lmax", "9"], "--lmax"),
             ("run-unbiased", ["--config", str(unbounded), "--lmax", "9"], "--lmax"),
             ("run-unbiased", ["--beta", "1.5"], "--beta"),
             ("run-unbiased", ["--rho", "0.6", "--lmax", "1"], "--rho")]
    for i, (mode, extra, flag) in enumerate(cases):
        out = tmp_path / f"out{i}"
        assert main([mode, "--data", data, "--m", "4", *extra, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and flag in err, (mode, extra)
        assert not out.exists()


def test_run_unbiased_unbounded(tmp_path, capsys):
    # the theory plan, under a cost budget; a config file's lmax, which
    # this plan does not read, is echoed like any key it does not read
    data = _generate(tmp_path)
    cfg_path = tmp_path / "c.txt"
    cfg_path.write_text("lmax = 9\n")
    out = tmp_path / "run"
    assert main(["run-unbiased", "--config", str(cfg_path), "--data", data, "--unbounded",
                 "--beta", "1.0", "--rho", "0.9", "--n0", "4", "--m", "10",
                 "--cost-budget", "100000", "--out", str(out)]) == 0
    meta = _strict_json(out / "unbiased_meta.json")
    assert meta["estimator"] == "unbiased"
    assert meta["cost"]["expected_draw_cost"] == "inf"
    assert meta["config"]["lmax"] == 9 and meta["config"]["unbounded"] is True
    assert "lmax = 9" in (out / "run_config.txt").read_text().splitlines()
    capsys.readouterr()


def test_config_file_problems_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("seed = seven\n")
    for path in (bad, tmp_path / "missing.txt"):
        out = tmp_path / "gen"
        assert main(["generate", "--config", str(path), "--out", str(out)]) == 1
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()


def test_readme_command_examples_parse():
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    commands = [line.split() for block in readme.split("```sh")[1:]
                for line in block.split("```")[0].replace("\\\n", " ").splitlines()
                if line.startswith("unbiasedpf ")]
    assert len(commands) >= 5
    for argv in commands:
        cli._build_parser().parse_args(argv[1:])


@pytest.mark.parametrize("c1", ["inf", "nan"])
def test_non_finite_c1_is_a_configuration_error(tmp_path, capsys, c1):
    data = _generate(tmp_path)
    out = tmp_path / "mlpf"
    assert main(["run-mlpf", "--data", data, "--levels", "1", "--repeats", "2",
                 "--c1", c1, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "c1" in err
    assert not out.exists()


def test_fractional_gen_level_is_a_configuration_error(tmp_path, capsys):
    out = tmp_path / "gen"
    assert main(["generate", "--model", "NLD", "--n", "3", "--gen-level", "2.5",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and "--gen-level" in err and "2.5" in err
    assert not out.exists()


def test_fractional_mlpf_level_is_rejected_before_any_output(tmp_path):
    data = _generate(tmp_path)
    out = tmp_path / "mlpf"
    cfg = ExperimentConfig(mode="run-mlpf", data=data, levels=(1.5,), repeats=2, out=str(out))
    with pytest.raises(InvalidRate, match="1.5"):
        run_experiment(cfg)
    assert not out.exists()


@pytest.mark.parametrize("model,argv,code", [
    ("NLD", ["reference", "--particles", "0"], 1),
    ("NLD", ["reference", "--level", "-1"], 2),
    ("OU", ["sweep-variance", "--particles", "0", "--repeats", "2"], 1),
], ids=["reference-particles", "reference-level", "sweep-particles"])
def test_sizes_and_levels_are_checked_before_the_output_directory(tmp_path, capsys,
                                                                  model, argv, code):
    data = _generate(tmp_path, model=model)
    out = tmp_path / "out"
    assert main([*argv, "--data", data, "--out", str(out)]) == code
    capsys.readouterr()
    assert not out.exists()


def test_a_negative_cost_budget_is_a_configuration_error(tmp_path, capsys):
    data = _generate(tmp_path)
    out = tmp_path / "run"
    assert main(["run-unbiased", "--data", data, "--lmax", "2", "--m", "4",
                 "--cost-budget", "-1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and "cost_budget" in err
    assert not out.exists()


def _reference_argv(data, out, *extra):
    return ["reference", "--data", data, "--out", str(out), *extra]


@pytest.mark.parametrize("side_file,text", [
    ("data", "{bad"),
    ("reference", "[1]"),
    ("reference", "{x"),
])
def test_unreadable_side_files_are_configuration_errors(tmp_path, capsys, side_file, text):
    data = _generate(tmp_path)
    out = tmp_path / "ref"
    assert main(_reference_argv(data, out)) == 0
    bad = os.path.join(os.path.dirname(data), "data.meta.json") if side_file == "data" \
        else str(out / "reference.meta.json")
    _write_text(Path(bad), text)
    capsys.readouterr()
    assert main(_reference_argv(data, out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and bad in err
    assert "Traceback" not in err


def test_refresh_recomputes_over_an_unreadable_cache(tmp_path, capsys):
    data = _generate(tmp_path)
    out = tmp_path / "ref"
    assert main(_reference_argv(data, out)) == 0
    written = (out / "reference.csv").read_bytes()
    (out / "reference.meta.json").write_text("{x")
    (out / "reference.csv").write_text("k,mean\n")
    assert main(_reference_argv(data, out, "--refresh")) == 0
    assert "cached" not in capsys.readouterr().out
    assert (out / "reference.csv").read_bytes() == written
    assert json.loads((out / "reference.meta.json").read_text())["params"]["kind"] == "kalman"


def test_csv_round_trip_keeps_floats_bit_for_bit(tmp_path):
    values = [-0.0, 5e-324, 1.7976931348623157e308, 0.1, -2.5e-310, 1 / 3]
    path = str(tmp_path / "floats.csv")
    _write_csv(path, ["k", "x"], [(i, v) for i, v in enumerate(values)])
    back = [row["x"] for row in _read_csv(path, "test file", ["x"])]
    assert np.array(back).tobytes() == np.array(values).tobytes()
