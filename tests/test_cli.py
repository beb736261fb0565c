"""Config handling, subcommand runners, artifacts and exit codes."""

import csv
import json
import os

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
from unbiasedpf.errors import ConfigError, NonOverlappingRange
from unbiasedpf.mlpf import allocate, mlpf_cost
from unbiasedpf.observation import read_dataset


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
    u = [("a", 1e-5, 1e5), ("b", 1e-1, 1e1)]
    pts = [("p%d" % k, 10.0 ** (-k), c * 10.0 ** k)
           for k, c in zip(range(2, 5), (0.125, 0.5, 0.5))]
    rows, avg = compare_cost_ratio(pts and u, pts, max_levels=2)
    assert len(rows) == 2
    assert avg == pytest.approx(2.0, rel=1e-12)


def test_run_compare_writes_ratio_table(tmp_path):
    upath = tmp_path / "u.csv"
    with open(upath, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["M", "groups", "mse", "cost"])
        for k in (2, 3, 4, 5):
            w.writerow([2 ** k, 10, repr(10.0 ** (-k)), repr(10.0 ** k)])
    mpath = tmp_path / "m.csv"
    with open(mpath, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["L", "mse", "cost", "repeats"])
        w.writerow([3, repr(1e-3), repr(2e3), 5])

    out = tmp_path / "cmp"
    res = run_experiment(
        ExperimentConfig(mode="compare", unbiased=str(upath), mlpf=str(mpath),
                         out=str(out))
    )
    rows = _read_rows(res["cost_ratio"])
    assert rows[-1]["L"] == "average"
    assert float(rows[-1]["ratio"]) == pytest.approx(0.5, rel=1e-12)
    assert res["average_ratio"] == "0.5"

    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig(mode="compare", unbiased=str(upath)))


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


def test_main_exit_code_for_io_failures(tmp_path, capsys):
    code = main(["compare", "--unbiased", str(tmp_path / "nope.csv"),
                 "--mlpf", str(tmp_path / "nope2.csv"),
                 "--out", str(tmp_path / "c")])
    assert code == 3
    assert "i/o error" in capsys.readouterr().err
