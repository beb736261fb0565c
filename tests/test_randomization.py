"""Randomization plans, single draws, and the debiased estimators."""

import dataclasses
import json
import math
import os
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from unbiasedpf import (
    BatchSchedule,
    Level,
    Pmf,
    allocate,
    batch_cpf_run,
    batch_pf_run,
    cost_of_draw,
    default_base_size,
    draw_xi,
    expected_draw_cost,
    make_benchmark,
    make_single_rand_plan,
    make_theory_plan,
    make_truncated_plan,
    mlpf_estimate,
    randomized_table_mean,
    single_rand_draw_cost,
    unbiased_estimate,
    RngStream,
)
from unbiasedpf import randomization
from unbiasedpf.cpf import SCHEMES
from unbiasedpf.errors import (CostBudgetExceeded, DegenerateWeights, InvalidRate,
                               NumericalOverflow)
from unbiasedpf.observation import DataSet
from unbiasedpf.randomization import _MAX_RETRIES, _sample_indices
from unbiasedpf.rng import ROLE_FILTER, ROLE_PLAN, ROLE_RETRY, ROLE_SINGLE
from unbiasedpf.sde import _MAX_BLOCK, _step_groups


def test_pmf_normalization_and_mass():
    pmf = Pmf([2.0, 1.0, 1.0], start=1)
    assert np.allclose(pmf.p, [0.5, 0.25, 0.25], atol=1e-15)
    assert pmf.mass(1) == 0.5
    assert pmf.mass(0) == 0.0
    assert pmf.mass(4) == 0.0
    assert np.allclose(pmf.mass(np.array([0, 1, 2, 3, 4])), [0, 0.5, 0.25, 0.25, 0])
    assert pmf.stop == 3
    assert len(pmf) == 3


def test_pmf_rejects_bad_masses():
    with pytest.raises(InvalidRate):
        Pmf([])
    with pytest.raises(InvalidRate):
        Pmf([1.0, -0.5])
    with pytest.raises(InvalidRate):
        Pmf([0.0, 0.0])
    with pytest.raises(InvalidRate):
        Pmf([1.0, np.inf])


def test_pmf_sampling_frequencies():
    pmf = Pmf([0.5, 0.3, 0.2])
    gen = np.random.default_rng(2)
    draws = pmf.sample(gen, 100000)
    counts = np.bincount(draws, minlength=3)
    _, p = stats.chisquare(counts, 100000 * pmf.p)
    assert p > 0.01


def test_pmf_from_function_matches_geometric():
    # the machine-complete table of a geometric pmf must reproduce the
    # closed-form masses (1 - r) r^k to float accuracy
    r = 2.0 ** (-0.9)
    pmf = Pmf.from_function(lambda k: r ** k)
    ks = np.arange(10)
    assert np.allclose(pmf.mass(ks), (1 - r) * r ** ks, atol=1e-12)
    assert not pmf.bounded


def test_pmf_from_function_rejects_fat_tails():
    with pytest.raises(InvalidRate):
        Pmf.from_function(lambda k: 1.0)  # constant terms never become negligible


def test_theory_plan_rates():
    plan = make_theory_plan(1.0, 0.9, 10)
    assert plan.kind == "theory" and plan.unbounded
    assert plan.level_pmf.mass(0) == pytest.approx(1 - 2.0 ** (-0.9), abs=1e-12)
    # consecutive level masses fall by exactly 2^(-beta rho)
    assert plan.level_pmf.mass(3) / plan.level_pmf.mass(2) == pytest.approx(
        2.0 ** (-0.9), abs=1e-12
    )
    # the sample-size pmf has the 2^-p (p+1) log2(p+2)^2 shape: the p = 1
    # over p = 0 ratio is (log2 3)^2
    pp = plan.pmf_p(0)
    assert pp.mass(1) / pp.mass(0) == pytest.approx(2.5121061286922606, abs=1e-12)
    assert pp.mass(1) / pp.mass(0) == pytest.approx(2.5121, abs=1e-3)
    assert plan.p_max(0) is None
    assert math.isinf(expected_draw_cost(plan, 5))
    # one shared sample-size table, held once per level
    assert len(plan.p_pmfs) == len(plan.level_pmf)
    assert all(q is pp for q in plan.p_pmfs)


@pytest.mark.parametrize("beta,rho", [(0.0, 0.5), (2.5, 0.5), (1.0, 0.0), (1.0, 1.0)])
def test_theory_plan_rejects_bad_rates(beta, rho):
    with pytest.raises(InvalidRate):
        make_theory_plan(beta, rho, 10)


def test_truncated_plan_tables():
    plan = make_truncated_plan(3, 10)
    assert plan.kind == "truncated" and not plan.unbounded
    want = [
        0.6567076666988966,
        0.23218122218999243,
        0.08208845833736207,
        0.029022652773749054,
    ]
    assert np.allclose(plan.level_pmf.mass(np.arange(4)), want, atol=1e-12)
    # conditional sample-size support shrinks with the level
    for l in range(4):
        assert plan.p_max(l) == 3 - l
    assert np.allclose(plan.pmf_p(0).p, np.array([16, 8, 4, 2]) / 30.0, atol=1e-15)
    assert plan.pmf_p(3).p.tolist() == [1.0]
    # the tail beyond p = 4 switches to the log-weighted form
    wide = make_truncated_plan(7, 10)
    masses = wide.pmf_p(0)
    raw_p5 = 0.8423984496605086
    assert masses.mass(5) / masses.mass(4) == pytest.approx(raw_p5 / 1.0, abs=1e-12)
    with pytest.raises(InvalidRate):
        make_truncated_plan(-1, 10)


def test_single_plan_tables():
    plan = make_single_rand_plan(2, 10)
    assert plan.kind == "single"
    # a level-only draw is the cell (l, l): each level's sample-size pmf is
    # the point mass at p = l
    assert [(q.start, q.p.tolist()) for q in plan.p_pmfs] == [(0, [1.0]), (1, [1.0]), (2, [1.0])]
    assert [plan.p_max(l) for l in range(3)] == [0, 1, 2]
    want = [0.15356015093089656, 0.38575939627641376, 0.46068045279268965]
    assert np.allclose(plan.level_pmf.mass(np.arange(3)), want, atol=1e-12)
    assert plan.level_weight(1) == pytest.approx(2.5922894157669605, abs=1e-12)

    free = make_single_rand_plan(None, 10)
    assert free.unbounded and free.label == "unbiased"
    assert math.isinf(expected_draw_cost(free, 4))
    assert len(free.p_pmfs) == len(free.level_pmf)


def test_plan_labels():
    # the label follows the supports: unbounded plans are unbiased
    assert make_theory_plan(1.0, 0.9, 10).label == "unbiased"
    assert make_truncated_plan(3, 10).label == "bias-controlled"
    assert make_single_rand_plan(3, 10).label == "bias-controlled"
    assert make_single_rand_plan(None, 10).label == "unbiased"


def test_default_base_size():
    assert default_base_size(make_benchmark("OU").diffusion) == 10
    assert default_base_size(make_benchmark("Langevin").diffusion) == 10
    assert default_base_size(make_benchmark("GBM").diffusion) == 50
    assert default_base_size(make_benchmark("NLD").diffusion) == 50


def test_cost_formulas_hand_values():
    sched = BatchSchedule(10)
    assert cost_of_draw(0, 0, 5, sched) == 50
    assert cost_of_draw(2, 2, 2, sched) == 2 * 40 * 6 == 480
    assert cost_of_draw(3, 1, 4, sched) == 4 * 20 * 12
    assert single_rand_draw_cost(0, 5, sched) == 50
    # l = 2: 20 extra particles at level 2 plus 20 coupled pairs
    assert single_rand_draw_cost(2, 5, sched) == 5 * (20 * 4 + 20 * 6) == 1000


def test_expected_draw_cost_hand_value():
    plan = make_truncated_plan(1, 2)
    assert expected_draw_cost(plan, 3) == pytest.approx(10.612038749637415, abs=1e-12)


def test_draw_xi_contracts(ou, ou_data_n3):
    plan = make_truncated_plan(2, 4)
    s = draw_xi(plan, ou, ou_data_n3, 1, 1, RngStream(70, (1,)))
    assert s.l == 1 and s.p == 1
    assert s.xi == s.trace[-1]
    assert s.trace.shape == (3,)
    assert s.cost == cost_of_draw(1, 1, 3, plan.schedule)
    assert s.weight == pytest.approx(1.0 / plan.level_pmf.mass(1), abs=1e-15)

    # p = 0 draws difference against zero, so the trace is the plain
    # combined estimate divided by the conditional mass
    s0 = draw_xi(plan, ou, ou_data_n3, 0, 0, RngStream(70, (2,)))
    assert s0.cost == cost_of_draw(0, 0, 3, plan.schedule)

    with pytest.raises(InvalidRate):
        draw_xi(plan, ou, ou_data_n3, 1, 5, RngStream(70, (3,)))


def test_draw_xi_single_contracts(ou, ou_data_n3):
    plan = make_single_rand_plan(2, 4)
    for l in range(3):
        s = draw_xi(plan, ou, ou_data_n3, l, l, RngStream(71, (l,)))
        assert s.l == s.p == l
        assert s.cost == single_rand_draw_cost(l, 3, plan.schedule)
        assert s.weight == pytest.approx(1.0 / plan.level_pmf.mass(l), abs=1e-12)
        assert s.xi == s.trace[-1]


def test_draws_reject_levels_without_mass(ou, ou_data_n3, monkeypatch):
    # a level outside the plan's support, a level-only draw off the cell
    # (l, l), or an index that is not an integer fails at the boundary,
    # before any filter runs
    def no_filter(*args):
        raise AssertionError("a filter ran")

    monkeypatch.setattr(randomization, "_run_cell", no_filter)
    single = make_single_rand_plan(3, 10)
    for l in (4, -1):
        with pytest.raises(InvalidRate, match=f"level {l} carries no mass"):
            draw_xi(make_truncated_plan(3, 10), ou, ou_data_n3, l, 0, RngStream(72))
        with pytest.raises(InvalidRate, match=f"level {l} carries no mass"):
            draw_xi(single, ou, ou_data_n3, l, l, RngStream(72))
    for l, p in ((2, 0), (1, 2), (0, 1)):
        with pytest.raises(InvalidRate, match=f"index p={p} carries no mass at level {l}"):
            draw_xi(single, ou, ou_data_n3, l, p, RngStream(72))
    for l, p in ((1.5, 0), (1, 0.5), (np.float64(2.5), 0)):
        for plan in (make_truncated_plan(3, 10), single):
            with pytest.raises(InvalidRate, match="must be integers"):
                draw_xi(plan, ou, ou_data_n3, l, p, RngStream(72))


def test_sample_indices_respect_supports():
    plan = make_truncated_plan(4, 10)
    gen = RngStream(5, (0,)).gen
    ls, ps = _sample_indices(plan, gen, 5000)
    assert ls.min() >= 0 and ls.max() <= 4
    for l in range(5):
        sel = ls == l
        if sel.any():
            assert ps[sel].max() <= 4 - l

    single = make_single_rand_plan(3, 10)
    ls, ps = _sample_indices(single, RngStream(5, (1,)).gen, 100)
    assert np.array_equal(ls, ps)


def test_randomized_table_mean_is_unbiased():
    # with Xi replaced by a fixed table the estimator's expectation is the
    # telescoped sum over levels of the table's final column entries
    plan = make_truncated_plan(3, 10)
    gen = np.random.default_rng(99)
    table = gen.normal(size=(4, 4))
    exact = sum(table[l, 3 - l] for l in range(4))
    mean, se = randomized_table_mean(plan, table, 200000, seed=12)
    assert abs(mean - exact) < 3 * se
    assert se < 0.1


def test_estimate_reductions_recomputable(ou, ou_data_n3):
    plan = make_truncated_plan(2, 4)
    est = unbiased_estimate(plan, ou, ou_data_n3, 80, seed=21)
    d = est.draws
    assert est.m == 80
    assert est.value == pytest.approx(np.mean(d["weight"] * d["xi"]), abs=1e-12)
    assert est.per_time[-1] == pytest.approx(est.value, abs=1e-12)
    assert est.total_cost == int(d["cost"].sum())
    assert est.stderr == pytest.approx(
        np.std(d["weight"] * d["xi"], ddof=1) / math.sqrt(80), abs=1e-12
    )
    rows = est.summary_rows()
    assert [r[0] for r in rows] == [1, 2, 3]
    assert rows[-1][1] == pytest.approx(est.value, abs=1e-12)
    assert est.label == "bias-controlled"


def test_estimates_are_thread_invariant(ou, ou_data_n3):
    plan = make_truncated_plan(2, 4)
    serial = unbiased_estimate(plan, ou, ou_data_n3, 60, seed=33, threads=1)
    pooled = unbiased_estimate(plan, ou, ou_data_n3, 60, seed=33, threads=4)
    assert serial.value == pooled.value
    assert np.array_equal(serial.per_time, pooled.per_time)
    assert np.array_equal(serial.draws["xi"], pooled.draws["xi"])
    assert serial.total_cost == pooled.total_cost

    single = make_single_rand_plan(2, 4)
    a = unbiased_estimate(single, ou, ou_data_n3, 30, seed=34, threads=1)
    b = unbiased_estimate(single, ou, ou_data_n3, 30, seed=34, threads=8)
    assert a.value == b.value
    assert np.array_equal(a.draws["xi"], b.draws["xi"])


def test_single_draw_estimate_has_nan_spread(ou, ou_data_n3):
    plan = make_truncated_plan(1, 4)
    est = unbiased_estimate(plan, ou, ou_data_n3, 1, seed=2)
    assert math.isnan(est.stderr) and math.isnan(est.variance)


def test_kind_guards(ou, ou_data_n3):
    double = make_truncated_plan(2, 4)
    with pytest.raises(InvalidRate):
        unbiased_estimate(double, ou, ou_data_n3, 0, seed=1)
    with pytest.raises(ValueError):
        unbiased_estimate(double, ou, ou_data_n3, 10, seed=1, mode="lenient")


@pytest.mark.parametrize("threads", [0, -2, 1.5, "2", None])
def test_threads_guard(ou, ou_data_n3, threads):
    with pytest.raises(InvalidRate):
        unbiased_estimate(make_truncated_plan(2, 4), ou, ou_data_n3, 10, seed=1,
                          threads=threads)
    with pytest.raises(InvalidRate):
        unbiased_estimate(make_single_rand_plan(2, 4), ou, ou_data_n3, 10, seed=1,
                          threads=threads)
    with pytest.raises(InvalidRate):
        mlpf_estimate(ou, ou_data_n3, allocate(1, "constant"), threads=threads)


def test_scheme_guard(ou, ou_data_n3):
    # level-0-only runs start no coupled filter, so the scheme is checked
    # before any draw rather than where a coupled batch starts
    with pytest.raises(ValueError):
        unbiased_estimate(make_truncated_plan(0, 10), ou, ou_data_n3, 10, seed=1,
                          scheme="antithetic")
    with pytest.raises(ValueError):
        unbiased_estimate(make_single_rand_plan(0, 10), ou, ou_data_n3, 10, seed=1,
                          scheme="antithetic")
    with pytest.raises(ValueError):
        mlpf_estimate(ou, ou_data_n3, allocate(0, "constant"), scheme="bogus")


def test_cost_budget_guard(ou, ou_data_n3):
    plan = make_truncated_plan(2, 10)
    with pytest.raises(CostBudgetExceeded):
        unbiased_estimate(plan, ou, ou_data_n3, 200, seed=3, cost_budget=50)
    est = unbiased_estimate(plan, ou, ou_data_n3, 20, seed=3, cost_budget=10 ** 9)
    assert est.m == 20


def test_permissive_mode_retries_failed_draws():
    # an unguarded log link turns negative states into NaN log-weights, so
    # most draws fail on the first try; strict mode must surface that and
    # permissive mode must absorb it through keyed retries
    nld = _log_link_nld()
    data = DataSet(y=[0.0], model="NLD")
    plan = make_truncated_plan(0, 2)

    with pytest.raises(DegenerateWeights):
        unbiased_estimate(plan, nld, data, 10, seed=3, mode="strict")

    est = unbiased_estimate(plan, nld, data, 10, seed=3, mode="permissive")
    assert est.retries > 0
    assert np.isfinite(est.value)


def test_strict_failure_is_the_same_for_any_worker_count():
    # workers report their first error and the parent raises the one of the
    # lowest failing index, as a serial loop would, and reaps every worker
    nld = _log_link_nld()
    data = DataSet(y=[0.0], model="NLD")
    plan = make_truncated_plan(0, 2)
    errs = []
    for threads in (1, 2):
        with pytest.raises(DegenerateWeights) as info:
            unbiased_estimate(plan, nld, data, 10, seed=3, mode="strict", threads=threads)
        errs.append(info.value)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    one, two = errs
    assert str(one) == str(two)
    assert (one.level, one.p, one.time_index) == (two.level, two.p, two.time_index)
    assert one.level is not None and one.time_index is not None


def test_retry_streams_are_deterministic():
    nld = _log_link_nld()
    data = DataSet(y=[0.0], model="NLD")
    plan = make_truncated_plan(0, 2)
    a = unbiased_estimate(plan, nld, data, 10, seed=3, mode="permissive")
    b = unbiased_estimate(plan, nld, data, 10, seed=3, mode="permissive", threads=4)
    assert a.value == b.value
    assert a.retries == b.retries


def test_randomized_table_mean_validates_the_draw_count():
    plan = make_truncated_plan(2, 10)
    table = np.arange(9.0).reshape(3, 3)
    for bad in (0, -3, 2.5):
        with pytest.raises(InvalidRate):
            randomized_table_mean(plan, table, bad, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mean, se = randomized_table_mean(plan, table, 1, seed=1)
    assert math.isfinite(mean) and math.isnan(se)


def test_randomized_table_mean_rejects_level_only_plans():
    table = np.arange(9.0).reshape(3, 3)
    with pytest.raises(InvalidRate, match="does not randomize the sample size"):
        randomized_table_mean(make_single_rand_plan(2, 10), table, 10, seed=1)


def test_draws_equal_recorded_values(ou, ou_data, nld, nld_data):
    # float.hex values recorded when every draw still ran as its own
    # filter; the stacked cells must reproduce every bit
    golden = json.loads((Path(__file__).parent / "golden_draws.json").read_text())
    for name, bm, data in (("OU", ou, ou_data), ("NLD", nld, nld_data)):
        for scheme in SCHEMES:
            for kind, plan in (("double", make_truncated_plan(3, 10)),
                               ("single", make_single_rand_plan(3, 10))):
                est = unbiased_estimate(plan, bm, data, 40, seed=3, scheme=scheme)
                want = golden[f"{name}-{scheme}-{kind}"]
                assert [v.hex() for v in est.per_time.tolist()] == want["per_time"]
                assert [v.hex() for v in est.draws["xi"].tolist()] == want["xi"]


@pytest.mark.parametrize("rows", [None, 1, 3, 80])
@pytest.mark.parametrize("model", ["OU", "NLD"])
def test_stacked_cells_equal_one_draw_at_a_time(ou_data_n3, monkeypatch, rows, model):
    # each stacked row must be its draw run alone, for any chunk size;
    # 80 rows stack every draw of a cell at once
    if rows is not None:
        monkeypatch.setattr(randomization, "_chunk_rows", lambda *args: rows)
    bm = make_benchmark(model)
    data = DataSet(y=ou_data_n3.y, model=model)
    root = RngStream(8)
    for scheme in SCHEMES:
        plan = make_truncated_plan(3, 4)
        est = unbiased_estimate(plan, bm, data, 80, seed=8, scheme=scheme)
        cells = set(zip(est.draws["l"].tolist(), est.draws["p"].tolist()))
        assert cells == {(l, p) for l in range(4) for p in range(4 - l)}
        alone = [draw_xi(plan, bm, data, l, p, root.child(i + 1, ROLE_FILTER), scheme)
                 for i, (l, p) in enumerate(zip(est.draws["l"].tolist(), est.draws["p"].tolist()))]
        _assert_same_draws(est, alone)

        single = make_single_rand_plan(3, 4)
        est = unbiased_estimate(single, bm, data, 40, seed=8, scheme=scheme)
        assert set(est.draws["l"].tolist()) == {0, 1, 2, 3}
        assert np.array_equal(est.draws["l"], est.draws["p"])
        alone = [draw_xi(single, bm, data, l, l, root.child(i + 1, ROLE_SINGLE), scheme)
                 for i, l in enumerate(est.draws["l"].tolist())]
        _assert_same_draws(est, alone)

        # a level-only cell (l = 2, N_0 = 1) whose rows succeed, or fail in
        # the first filter, the coupled one or both; a row keeps its first
        # error, which the first filter run alone raises
        nld, one = _log_link_nld(), DataSet(y=[0.0], model="NLD")
        single = make_single_rand_plan(2, 1)
        streams = [RngStream(2).child(i + 1, ROLE_SINGLE) for i in range(12)]
        traces, _, errors = randomization._run_cell(single, nld, one, 2, 2, streams, scheme)
        outcomes = set()
        for r, stream in enumerate(streams):
            first = _error_of(batch_pf_run, nld, one, BatchSchedule(2), 0, Level(2),
                              stream.child(0))
            coupled = _error_of(batch_cpf_run, nld, one, BatchSchedule(1), 1, Level(2),
                                stream.child(1), scheme)
            outcomes.add((first is None, coupled is None))
            if first is None and coupled is None:
                trace = draw_xi(single, nld, one, 2, 2, stream, scheme).trace
                assert r not in errors and trace.tolist() == traces[r].tolist()
            else:
                alone = _error_of(draw_xi, single, nld, one, 2, 2, stream, scheme)
                assert str(errors[r]) == str(alone) == str(first or alone)
        assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


def test_chunks_bound_their_generators_and_increment_blocks():
    # the chunk sizes of OU (n0 = 10) and NLD (n0 = 50) plans: at most 64
    # live batch generators, and at most 24 * _MAX_BLOCK doubles in the
    # rows' largest generator calls, unless one row alone is over a bound;
    # and no more rows could be added without going over one
    for n0 in (10, 50):
        sched = BatchSchedule(n0)
        for d in (1, 3):
            for l in range(11):
                for p in range(11 - l):
                    block = max(max(_step_groups(2 ** l, n, d)) * n * d
                                for n in sched.batch_sizes(p))
                    rows = randomization._chunk_rows(l, p, sched, d)

                    def fits(r):
                        return r * (p + 1) <= 64 and r * block <= 24 * _MAX_BLOCK

                    assert fits(rows) or rows == 1
                    assert not fits(rows + 1)
    # ou-rand's cells (make_truncated_plan(6, 10), OU): the generator
    # bound holds at every level
    for l in range(7):
        got = [randomization._chunk_rows(l, p, BatchSchedule(10), 1) for p in range(7 - l)]
        assert got == [64, 32, 21, 16, 12, 10, 9][:7 - l]
    # NLD (n0 = 50): a level-10 row of 50 particles draws 654 steps per
    # call, 32700 doubles, so 24 rows fill the block bound, also at p = 1
    # and for 3-d states (218 steps of 150 doubles); at level 8 a row
    # draws 256 steps, 12800 doubles, and 61 rows fit; at level 7, 64
    assert [randomization._chunk_rows(l, p, BatchSchedule(50), d)
            for l, p, d in ((10, 0, 1), (10, 1, 1), (10, 0, 3), (8, 0, 1), (7, 0, 1))] == [
        24, 24, 24, 61, 64]


def _error_of(fn, *args):
    # the filter error that fn(*args) raises, or None
    try:
        fn(*args)
    except (DegenerateWeights, NumericalOverflow) as err:
        return err
    return None


def _assert_same_draws(est, samples, retries=0):
    assert est.draws["xi"].tolist() == [s.xi for s in samples]
    assert est.draws["cost"].tolist() == [s.cost for s in samples]
    traces = np.array([s.trace for s in samples])
    per_time = np.sum(est.draws["weight"][:, None] * traces, axis=0) / est.m
    assert np.array_equal(est.per_time, per_time)
    assert est.retries == retries


def _log_link_nld():
    # NLD observed through an unguarded log link: negative states give NaN
    # log-weights, so draws fail
    nld = make_benchmark("NLD")
    return dataclasses.replace(nld, observation=dataclasses.replace(nld.observation, link="log"))


def _log_link_case(y):
    # the log-link NLD, with draws failing in several cells
    return _log_link_nld(), DataSet(y=y, model="NLD"), make_truncated_plan(1, 2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("y,seed,message", [
    ([1.0, 0.5], 4, "non-finite log-weights (l=1, p=0, k=0)"),
    # a NaN only in the second batch: the shared scale stays finite, and
    # the combined estimate has zero mass
    ([0.0], 1, "combined batch estimate has zero mass (l=0, p=1, k=0)"),
])
def test_strict_mode_raises_the_lowest_failing_draw_across_cells(y, seed, message):
    nld, data, plan = _log_link_case(y)
    root = RngStream(seed)
    ls, ps = _sample_indices(plan, root.child(0, ROLE_PLAN).gen, 10)
    errors = {}
    for i, (l, p) in enumerate(zip(ls.tolist(), ps.tolist())):
        try:
            draw_xi(plan, nld, data, l, p, root.child(i + 1, ROLE_FILTER))
        except (DegenerateWeights, NumericalOverflow) as err:
            errors[i] = ((l, p), err)
    first = min(errors)
    # a failing draw with a higher index sits in a cell that runs first
    assert any(cell < errors[first][0] for i, (cell, _) in errors.items() if i > first)
    for threads in (1, 2):
        with pytest.raises(DegenerateWeights) as info:
            unbiased_estimate(plan, nld, data, 10, seed=seed, threads=threads)
        want = errors[first][1]
        assert str(info.value) == str(want) == message
        assert (info.value.level, info.value.p, info.value.time_index) == (
            want.level, want.p, want.time_index)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_permissive_retries_equal_a_per_draw_loop():
    nld, data, plan = _log_link_case([0.0])
    root = RngStream(1)
    est = unbiased_estimate(plan, nld, data, 10, seed=1, mode="permissive")
    samples, retries = [], 0
    for i, (l, p) in enumerate(zip(est.draws["l"].tolist(), est.draws["p"].tolist())):
        stream = root.child(i + 1, ROLE_FILTER)
        for attempt in range(_MAX_RETRIES + 1):
            try:
                samples.append(draw_xi(plan, nld, data, l, p, stream))
                break
            except (DegenerateWeights, NumericalOverflow):
                stream = root.child(i + 1, ROLE_RETRY, attempt + 1)
        retries += attempt
    assert retries > 10
    _assert_same_draws(est, samples, retries)
    assert len(set(zip(est.draws["l"].tolist(), est.draws["p"].tolist()))) == 3
    two = unbiased_estimate(plan, nld, data, 10, seed=1, mode="permissive", threads=2)
    assert np.array_equal(two.per_time, est.per_time) and two.retries == est.retries
