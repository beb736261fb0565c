"""Particle filtering: weights, resampling, batches, and filter accuracy."""

import dataclasses
import math
import re
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from unbiasedpf import (
    BatchSchedule,
    Level,
    batch_cpf_run,
    batch_pf_run,
    draw_xi,
    make_truncated_plan,
    multinomial_indices,
    normalized_weights,
    RngStream,
    transition,
)
from unbiasedpf import randomization
from unbiasedpf.errors import DegenerateWeights, InvalidRate, InvalidSimplex, NumericalOverflow
from unbiasedpf.observation import DataSet
from unbiasedpf.cpf import SCHEMES, cpf_rows
from unbiasedpf.sde import DiffusionModel
from unbiasedpf.pf import (
    _batch_values,
    _log_max_error,
    _shared_scale,
    combined_rows,
    inverse_cdf,
    pf_rows,
)

from _oracles import (
    StubGen,
    euler_grid_filter,
    linear_gaussian_filter,
    ou_euler_coeffs,
)


def test_normalized_weights_basic():
    w = normalized_weights(np.log([1.0, 2.0, 1.0]))
    assert np.allclose(w, [0.25, 0.5, 0.25], atol=1e-15)
    assert w.sum() == pytest.approx(1.0, abs=1e-15)


def test_normalized_weights_shift_invariant():
    lw = np.array([-3.0, 0.5, 2.0])
    a = normalized_weights(lw)
    b = normalized_weights(lw - 700.0)
    c = normalized_weights(lw + 700.0)
    assert np.allclose(a, b, atol=1e-14)
    assert np.allclose(a, c, atol=1e-14)


def test_normalized_weights_failures_carry_context():
    with pytest.raises(DegenerateWeights):
        normalized_weights([-np.inf, -np.inf])
    with pytest.raises(DegenerateWeights):
        normalized_weights([0.0, np.nan])
    with pytest.raises(DegenerateWeights):
        normalized_weights([0.0, np.inf])
    with pytest.raises(ValueError):
        normalized_weights([])


def test_multinomial_indices_frequencies():
    gen = np.random.default_rng(3)
    w = np.array([0.5, 0.3, 0.0, 0.2])
    idx = multinomial_indices(gen, w, 100000)
    assert not np.any(idx == 2)
    counts = np.bincount(idx, minlength=4)
    _, p = stats.chisquare(counts[[0, 1, 3]], 100000 * w[[0, 1, 3]])
    assert p > 0.01


def test_multinomial_indices_checks_one_weight_vector():
    # the vectors the maximal-coupling checks use, one that never draws
    # its last index, a NaN and an empty one
    gen = np.random.default_rng(3)
    for w in ([0.5, -0.5, 1.0], [0.5, 0.4], [0.5, 0.5, 0.5], [0.5, np.nan], []):
        with pytest.raises(InvalidSimplex):
            multinomial_indices(gen, np.array(w), 10)
    assert multinomial_indices(gen, np.array([0.3, 0.3, 0.4]), 10).shape == (10,)


def test_inverse_cdf_equals_plain_search():
    # the reference searches each row's uniforms in the order they come
    def reference(weights, u):
        cum = np.cumsum(weights, axis=-1)
        cum[..., -1] = 1.0
        if cum.ndim == 1:
            return cum.searchsorted(u, side="right")
        return np.array([c.searchsorted(v, side="right") for c, v in zip(cum, u)])

    gen = np.random.default_rng(43)
    cases = []
    for n in (1, 2, 3, 17, 300, 4096, 20000):
        w = gen.dirichlet(np.ones(n), size=4)
        w[:, 1::3] = 0.0  # zero weights: empty steps of the CDF
        w /= w.sum(axis=-1, keepdims=True)
        # uniforms equal to the CDF's own values, to 0 and to the largest below 1
        edges = np.concatenate([np.cumsum(w, axis=-1), [[0.0, 1 - 2 ** -53]] * 4], 1)
        u = np.concatenate([gen.random((4, 2 * n)), np.where(edges < 1.0, edges, 0.5)], 1)
        u = gen.permuted(u, axis=1)
        cases += [(w[0], u[0]), (w[0], u[0, : max(1, n // 2)]), (w, u)]
    # running sums that pass 1.0 before the last entry, which then drops to 1.0
    over = []
    while len(over) < 8:
        w = gen.random(12)
        w[-1] = 0.0
        w /= w.sum()
        if np.cumsum(w)[-2] > 1.0:
            over.append(w)
    over = np.array(over)
    cases += [(over, np.tile(1 - 2.0 ** -np.arange(1, 54), (8, 1))), (over[0], gen.random(50))]
    for w, u in cases:
        got = inverse_cdf(w, u)
        assert got.shape == u.shape
        assert np.array_equal(got, reference(w, u))


def test_batch_schedule():
    s = BatchSchedule(10)
    assert [s.size(p) for p in range(4)] == [10, 20, 40, 80]
    assert s.batch_sizes(3) == [10, 10, 20, 40]
    assert sum(s.batch_sizes(3)) == s.size(3)
    with pytest.raises(ValueError):
        BatchSchedule(0)


def _combined(sizes, num, den, q):
    # combined_rows for one time, side and row: (1, 1, 1, p+1) batch values
    shape = (1, 1, 1, -1)
    out = combined_rows(sizes, np.reshape(num, shape), np.reshape(den, shape), q, 0)
    return float(out[0, 0, 0])


def test_batch_estimate_hand_value():
    sizes, num, den = [2, 4], [1.0, 2.0], [1.0, 1.0]
    assert _combined(sizes, num, den, 0) == pytest.approx(1.0, abs=1e-15)
    assert _combined(sizes, num, den, 1) == pytest.approx(5.0 / 3.0, abs=1e-15)
    with pytest.raises(DegenerateWeights) as exc:
        _combined([2], [1.0], [0.0], 0)
    assert (exc.value.level, exc.value.p, exc.value.time_index) == (0, 0, 0)


def _one_batch(x, log_g, phi):
    # one (N, d) cloud through the engine's scale guard, batch values and
    # combination; raises the error a filter run would record
    x, lg = x[None], np.asarray(log_g, dtype=float)[None]
    shift = _shared_scale([lg.max(axis=-1)])
    if not np.isfinite(shift).all():
        raise _log_max_error(float(shift[0]))
    num, den = _batch_values(x, lg, phi, shift)
    return _combined([len(lg[0])], num, den, 0)


def _weighted_ratio(log_g_values, values):
    # a single batch: the self-normalized ratio sum(w * values) / sum(w)
    x = np.asarray(values, dtype=float).reshape(-1, 1)
    return _one_batch(x, log_g_values, lambda z: z[:, 0])


def test_weighted_ratio_exactness():
    vals = np.array([1.0, 2.0, 3.0, 4.0])
    # constant weights reduce to the plain mean, exactly
    assert _weighted_ratio(np.full(4, -5.0), vals) == pytest.approx(2.5, abs=1e-15)
    # a unit functional gives exactly one whatever the weights
    lg = np.array([-1.0, 0.0, -700.0, 3.0])
    assert _weighted_ratio(lg, np.ones(4)) == 1.0
    with pytest.raises(DegenerateWeights):
        _weighted_ratio(np.full(3, -np.inf), np.ones(3))


def _start(model, n):
    return np.tile(np.asarray(model.initial_state, dtype=float), (n, 1))


def test_filter_functional_on_live_system(ou):
    x = transition(ou.diffusion, _start(ou.diffusion, 200), Level(1), RngStream(2, (0,)))
    assert _one_batch(x, np.zeros(len(x)), ou.phi) == pytest.approx(float(x[:, 0].mean()), abs=1e-12)


def test_init_particle_system_hand_path(ou):
    # a filter starts with one unit transition from x*; at level 0 from
    # x* = 0 that is just the noise itself
    stub = StubGen(normals=[np.array([0.3, -0.3, 0.6])])
    x = transition(ou.diffusion, _start(ou.diffusion, 3), Level(0), stub)
    assert np.allclose(x[:, 0], [0.3, -0.3, 0.6], atol=1e-15)


def test_batch_prefix_is_bit_identical(ou, ou_data_n3):
    # adding a fourth batch must not disturb the first three: same child
    # streams, same trajectories. The shared scale sees the new batch, so
    # the combined estimates agree to rounding, not to the bit.
    sched = BatchSchedule(8)
    small = batch_pf_run(ou, ou_data_n3, sched, 2, Level(1), RngStream(5, (1,)))
    big = batch_pf_run(ou, ou_data_n3, sched, 3, Level(1), RngStream(5, (1,)))
    assert small.shape == (3, 3) and big.shape == (3, 4)
    for q in range(3):
        assert small[:, q] == pytest.approx(big[:, q], abs=1e-12)


def test_batch_runs_need_a_non_negative_integer_p(ou, ou_data_n3):
    for bad in (-1, 1.5):
        with pytest.raises(InvalidRate):
            batch_pf_run(ou, ou_data_n3, BatchSchedule(4), bad, Level(1), RngStream(0))
        with pytest.raises(InvalidRate):
            batch_cpf_run(ou, ou_data_n3, BatchSchedule(4), bad, Level(1), RngStream(0))


def test_batch_pf_run_deterministic(ou, ou_data_n3):
    sched = BatchSchedule(16)
    a = batch_pf_run(ou, ou_data_n3, sched, 1, Level(2), RngStream(9, (4,)))
    b = batch_pf_run(ou, ou_data_n3, sched, 1, Level(2), RngStream(9, (4,)))
    assert np.array_equal(a, b)


def test_custom_functional_goes_through_the_model(ou, ou_data_n3):
    # the test functional is the model's phi; an affine phi on the same
    # stream moves every combined estimate by the same affine map
    sched = BatchSchedule(16)
    affine = dataclasses.replace(ou, phi=lambda x: 2 * x[..., 0] + 1)
    base = batch_pf_run(ou, ou_data_n3, sched, 1, Level(2), RngStream(9, (4,)))
    moved = batch_pf_run(affine, ou_data_n3, sched, 1, Level(2), RngStream(9, (4,)))
    assert np.abs(moved - (2 * base + 1)).max() < 1e-12


def test_level_filter_targets_match_across_oracles(ou, ou_data_n3):
    # the OU Euler chain at level l is linear-Gaussian with (f_l, q_l), so
    # the Kalman recursion on those coefficients and the quadrature filter
    # on the Euler substeps must agree on the filter law
    f2, q2 = ou_euler_coeffs(2)
    means_lg, _ = linear_gaussian_filter(ou_data_n3.y, 0.0, f2, q2, 0.2)
    means_gr, _ = euler_grid_filter(
        drift=lambda z: -z,
        diff=lambda z: np.ones_like(z),
        level=2,
        x0=0.0,
        ys=ou_data_n3.y,
        log_g=lambda x, y: ou.observation.log_g(x[:, None], y),
    )
    assert np.allclose(means_lg, means_gr, atol=1e-6)


def test_pf_estimates_level_filter_mean(ou, ou_data_n3):
    # repeated level-2 filters against the exact level-2 filter law
    f2, q2 = ou_euler_coeffs(2)
    means, _ = linear_gaussian_filter(ou_data_n3.y, 0.0, f2, q2, 0.2)
    reps = 40
    finals = np.empty(reps)
    sched = BatchSchedule(2000)
    for r in range(reps):
        finals[r] = batch_pf_run(ou, ou_data_n3, sched, 0, Level(2), RngStream(60, (r,)))[-1, 0]
    se = finals.std(ddof=1) / math.sqrt(reps)
    assert abs(finals.mean() - means[-1]) < 4 * se + 1e-4


def test_pf_matches_quadrature_on_nonlinear_model(nld, nld_data):
    # non-Gaussian observations, state-dependent diffusion: the quadrature
    # filter is the only exact reference available
    means, _ = euler_grid_filter(
        drift=lambda z: -z,
        diff=lambda z: 1.0 / np.sqrt(1.0 + z * z),
        level=2,
        x0=0.0,
        ys=nld_data.y,
        log_g=lambda x, y: nld.observation.log_g(x[:, None], y),
    )
    reps = 40
    finals = np.empty(reps)
    sched = BatchSchedule(2000)
    for r in range(reps):
        finals[r] = batch_pf_run(nld, nld_data, sched, 0, Level(2), RngStream(61, (r,)))[-1, 0]
    se = finals.std(ddof=1) / math.sqrt(reps)
    assert abs(finals.mean() - means[-1]) < 4 * se + 1e-4


def test_combined_composition_has_single_filter_law_at_time_zero(ou):
    # before any resampling the batch structure is invisible: the combined
    # ratio through q pools all particles, so for a one-observation record
    # it has exactly the law of one N_q-particle filter
    data = DataSet(y=[0.4], model="OU")
    reps = 300
    composed = np.empty(reps)
    direct = np.empty(reps)
    for r in range(reps):
        composed[r] = batch_pf_run(ou, data, BatchSchedule(25), 2, Level(1),
                                   RngStream(62, (r, 0)))[-1, 2]
        direct[r] = batch_pf_run(ou, data, BatchSchedule(100), 0, Level(1),
                                 RngStream(62, (r, 1)))[-1, 0]
    _, p = stats.ks_2samp(composed, direct)
    assert p > 0.01


def test_combined_batches_consistent_for_large_batches(ou, ou_data_n3):
    # with batches big enough that self-normalization bias is negligible,
    # the combined estimate agrees with the exact level-1 filter mean
    f1, q1 = ou_euler_coeffs(1)
    means, _ = linear_gaussian_filter(ou_data_n3.y, 0.0, f1, q1, 0.2)
    reps = 60
    sched = BatchSchedule(1000)
    finals = np.empty(reps)
    for r in range(reps):
        finals[r] = batch_pf_run(ou, ou_data_n3, sched, 2, Level(1), RngStream(62, (r,)))[-1, 2]
    se = finals.std(ddof=1) / math.sqrt(reps)
    assert abs(finals.mean() - means[-1]) < 4 * se + 1e-3


@pytest.mark.parametrize(
    "run, level",
    [
        (batch_pf_run, 0),
        (partial(batch_cpf_run, scheme="maximal"), 2),
        (partial(batch_cpf_run, scheme="wasserstein"), 2),
    ],
    ids=["pf", "cpf-maximal", "cpf-wasserstein"],
)
def test_degenerate_data_raises_with_context(ou, run, level):
    bad = DataSet(y=[np.inf], model="OU")
    with pytest.raises(DegenerateWeights) as exc:
        run(ou, bad, BatchSchedule(8), 1, Level(level), RngStream(1))
    assert exc.value.level == level
    assert exc.value.p == 1
    assert exc.value.time_index == 0
    # a noiseless state that reaches 1 at the first observation and leaves
    # the finite range on its way to the second one, k = 1
    boom = dataclasses.replace(ou, diffusion=DiffusionModel(
        1, lambda x: np.where(x >= 1.0, np.inf, 1.0),
        lambda x: np.zeros(np.shape(x)[:-1] + (1, 1)), np.zeros(1), True, "boom"))
    with pytest.raises(NumericalOverflow) as exc:
        run(boom, DataSet(y=[0.0, 0.0], model="OU"), BatchSchedule(8), 1, Level(level),
            RngStream(1))
    assert (exc.value.level, exc.value.p, exc.value.time_index) == (level, 1, 1)
    assert str(exc.value).endswith(f"overflowed for model 'boom' (l={level}, p=1, k=1)")


def test_resampling_not_consumed_after_last_observation(ou):
    # a one-observation run must spend exactly one unit transition per
    # particle: nothing after the final weighting
    from unbiasedpf import CostCounter

    data = DataSet(y=[0.1], model="OU")
    c = CostCounter()
    batch_pf_run(ou, data, BatchSchedule(32), 0, Level(3), RngStream(2), c)
    assert c.euler_steps == 32 * 8


def test_shared_scale_is_pythons_max_over_batch_maxima():
    # a NaN maximum in batch 0 makes the scale NaN (the run fails there);
    # one in a later batch is passed over, as max() over the batches does
    nan, one = np.array([np.nan, 2.0]), np.array([1.0, 3.0])
    assert np.array_equal(_shared_scale([nan, one]), [np.nan, 3.0], equal_nan=True)
    assert np.array_equal(_shared_scale([one, nan]), [1.0, 3.0])


class _Spoiled:
    # a Generator whose second standard_normal call, the increments to
    # k = 1, is spoiled in place after it is drawn
    def __init__(self, gen, spoil):
        self.gen, self.spoil, self.calls = gen, spoil, 0

    def __getattr__(self, name):
        return getattr(self.gen, name)

    def standard_normal(self, shape, out):
        self.gen.standard_normal(shape, out=out)
        self.calls += 1
        if self.calls == 2:
            self.spoil(out)


class _Poisoned:
    # a stream whose batch-2 generator is _Spoiled: its draw fails at k = 1
    # whether it runs alone or stacked
    def __init__(self, stream, spoil):
        self.stream, self.spoil = stream, spoil

    def child(self, q):
        gen = self.stream.child(q).gen
        return SimpleNamespace(gen=_Spoiled(gen, self.spoil) if q == 2 else gen)


_SPOIL = {
    # far-out but finite states, whose log-weights all underflow
    "weights": lambda dw: dw.__imul__(1e300),
    "overflow": lambda dw: dw.fill(np.nan),
}


@pytest.mark.filterwarnings("ignore:overflow encountered in square:RuntimeWarning")
@pytest.mark.parametrize("how", ["weights", "overflow"])
@pytest.mark.parametrize("scheme", (None,) + SCHEMES)
def test_a_row_that_fails_mid_run_leaves_the_other_rows_running(ou, ou_data_n3, scheme, how):
    # row 1 of three fails at k = 1 on its own streams: the stack raises
    # row 1's own error, and _run_cell reruns the rows alone, so rows 0 and
    # 2 are their draws run alone, bit for bit, and row 1 keeps that error
    l, sched, plan = 0 if scheme is None else 1, BatchSchedule(4), make_truncated_plan(3, 4)
    streams = [RngStream(4).child(r) for r in range(3)]
    streams[1] = _Poisoned(streams[1], _SPOIL[how])
    kind = "transition" if scheme is None else "coupled transition"
    want = {"weights": f"batch filter lost all weight (l={l}, p=2, k=1)",
            "overflow": f"{kind} overflowed for model 'OU' (l={l}, p=2, k=1)"}[how]
    with pytest.raises((DegenerateWeights, NumericalOverflow)) as exc:
        if scheme is None:
            pf_rows(ou, ou_data_n3, sched, 2, Level(l), streams)
        else:
            cpf_rows(ou, ou_data_n3, sched, 2, Level(l), streams, scheme)
    assert str(exc.value) == want
    scheme = scheme or "wasserstein"
    traces, costs, errors = randomization._run_cell(plan, ou, ou_data_n3, l, [2] * 3, streams,
                                                    scheme)
    assert list(errors) == [1] and str(errors[1]) == want
    with pytest.raises(type(errors[1]), match=re.escape(want)):
        draw_xi(plan, ou, ou_data_n3, l, 2, streams[1], scheme)
    for r in (0, 2):
        alone = draw_xi(plan, ou, ou_data_n3, l, 2, streams[r], scheme)
        assert traces[r].tolist() == alone.trace.tolist() and costs[r] == alone.cost
