"""Multilevel particle filter baseline."""

import json
from pathlib import Path

import numpy as np
import pytest
from _oracles import linear_gaussian_filter, ou_euler_coeffs

from unbiasedpf import (
    BatchSchedule,
    Level,
    RngStream,
    allocate,
    mlpf_cost,
    mlpf_estimate,
)
from unbiasedpf.cpf import SCHEMES, batch_cpf_run
from unbiasedpf.errors import InvalidRate
from unbiasedpf.pf import batch_pf_run
from unbiasedpf.rng import ROLE_MLPF
from unbiasedpf.sde import CostCounter


def test_allocate_hand_values():
    const = allocate(2, "constant")
    assert const.sizes.tolist() == [16, 6, 2]
    assert const.max_level == 2 and const.regime == "constant"
    rough = allocate(2, "nonconstant")
    assert rough.sizes.tolist() == [32, 16, 8]
    assert allocate(0, "constant").sizes.tolist() == [1]
    assert allocate(0, "nonconstant").sizes.tolist() == [1]
    assert allocate(2, "constant", c1=3.0).sizes.tolist() == [48, 17, 6]


def test_allocate_rejects_bad_inputs():
    with pytest.raises(InvalidRate):
        allocate(-1, "constant")
    with pytest.raises(InvalidRate):
        allocate(2, "constant", c1=0.0)
    with pytest.raises(ValueError):
        allocate(2, "balanced")


@pytest.mark.parametrize("c1", [float("inf"), float("nan")])
def test_allocate_rejects_non_finite_c1(c1):
    with pytest.raises(InvalidRate, match="c1 must be positive and finite"):
        allocate(2, "constant", c1)


def test_level_zero_run_matches_plain_filter(ou, ou_data):
    # with max level 0 the multilevel estimator is exactly one plain
    # level-0 particle filter, down to the bit pattern of its stream
    alloc = allocate(0, "constant", c1=64.0)
    res = mlpf_estimate(ou, ou_data, alloc, seed=40)

    sub = RngStream(40, (0, ROLE_MLPF)).child(0)
    counter = CostCounter()
    direct = batch_pf_run(
        ou, ou_data, BatchSchedule(int(alloc.sizes[0])), 0, Level(0), sub, counter
    )[:, 0]
    assert np.array_equal(res.per_time, direct)
    assert res.total_cost == counter.euler_steps


def test_measured_cost_matches_formula(ou, ou_data):
    for regime, big_l in (("constant", 2), ("nonconstant", 3)):
        alloc = allocate(big_l, regime)
        res = mlpf_estimate(ou, ou_data, alloc, seed=8)
        assert res.total_cost == mlpf_cost(alloc, ou_data.n)


def test_components_sum_to_estimate(ou, ou_data):
    alloc = allocate(2, "constant", c1=4.0)
    res = mlpf_estimate(ou, ou_data, alloc, seed=9)
    assert res.level_per_time.shape == (3, ou_data.n)
    assert np.allclose(res.per_time, res.level_per_time.sum(axis=0), atol=1e-12)
    assert res.value == res.per_time[-1]
    assert np.array_equal(res.level_values(), res.level_per_time[:, -1])


@pytest.mark.parametrize("big_l", [1, 3])
def test_telescoped_mean_tracks_level_filter(ou, ou_data, big_l):
    # the summed estimator targets the max-level discretized filter, which
    # for this model is available in closed form
    f, q = ou_euler_coeffs(big_l)
    oracle = linear_gaussian_filter(ou_data.y, 0.0, f, q, 0.2)[0][-1]

    alloc = allocate(big_l, "constant", c1=16.0)
    reps = 60
    vals = np.array(
        [
            mlpf_estimate(ou, ou_data, alloc, stream=RngStream(41, (r, ROLE_MLPF))).value
            for r in range(reps)
        ]
    )
    se = vals.std(ddof=1) / np.sqrt(reps)
    assert abs(vals.mean() - oracle) < 3 * se + 0.01


def test_estimate_is_thread_invariant(ou, ou_data):
    alloc = allocate(3, "nonconstant")
    serial = mlpf_estimate(ou, ou_data, alloc, seed=13, threads=1)
    pooled = mlpf_estimate(ou, ou_data, alloc, seed=13, threads=4)
    assert np.array_equal(serial.per_time, pooled.per_time)
    assert np.array_equal(serial.level_per_time, pooled.level_per_time)
    assert serial.total_cost == pooled.total_cost


def test_explicit_stream_overrides_seed(ou, ou_data):
    alloc = allocate(2, "constant")
    by_seed = mlpf_estimate(ou, ou_data, alloc, seed=17)
    by_stream = mlpf_estimate(ou, ou_data, alloc, seed=999,
                              stream=RngStream(17, (0, ROLE_MLPF)))
    assert np.array_equal(by_seed.per_time, by_stream.per_time)


def test_maximal_scheme_accepted(ou, ou_data):
    alloc = allocate(2, "constant", c1=4.0)
    res = mlpf_estimate(ou, ou_data, alloc, seed=5, scheme="maximal")
    assert np.all(np.isfinite(res.per_time))


def test_one_row_runs_equal_recorded_values(ou, ou_data, nld, nld_data):
    # float.hex values recorded when the one-row runs still returned one
    # estimate object per time; the plain arrays must reproduce every bit
    golden = json.loads((Path(__file__).parent / "golden_rows.json").read_text())

    def hexes(table):
        return [[v.hex() for v in row] for row in np.asarray(table).tolist()]

    sched = BatchSchedule(16)
    for name, bm, data in (("OU", ou, ou_data), ("NLD", nld, nld_data)):
        for l in (0, 2, 3):
            for p in range(3):
                got = batch_pf_run(bm, data, sched, p, Level(l), RngStream(7, (l, p)))
                assert hexes(got) == golden[f"{name}-pf-l{l}-p{p}"]
        for scheme in SCHEMES:
            for l in (2, 3):
                for p in range(3):
                    got = batch_cpf_run(bm, data, sched, p, Level(l), RngStream(7, (l, p)), scheme)
                    assert hexes(got) == golden[f"{name}-cpf-{scheme}-l{l}-p{p}"]
            for regime in ("constant", "nonconstant"):
                for seed in (1, 2):
                    res = mlpf_estimate(bm, data, allocate(3, regime), seed=seed, scheme=scheme)
                    want = golden[f"{name}-mlpf-{scheme}-{regime}-s{seed}"]
                    assert hexes(res.level_per_time) == want["level_per_time"]
                    assert res.total_cost == want["total_cost"]


def test_large_clouds_equal_recorded_values(nld, nld_data):
    # float.hex values of allocate(5, "nonconstant"), clouds of 160 to 5120
    # particles: numpy picks other sort and search paths at these sizes
    # than at the allocate(3, ...) sizes above
    want = json.loads((Path(__file__).parent / "golden_rows.json").read_text())
    for scheme in SCHEMES:
        res = mlpf_estimate(nld, nld_data, allocate(5, "nonconstant"), seed=1, scheme=scheme)
        got = [[v.hex() for v in row] for row in res.level_per_time.tolist()]
        assert got == want["NLD-mlpf-nonconstant-L5-s1"][scheme]["level_per_time"]
        assert res.total_cost == want["NLD-mlpf-nonconstant-L5-s1"][scheme]["total_cost"]
