"""Coupled resampling schemes and the coupled filter machinery."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from unbiasedpf import (
    BatchSchedule,
    Level,
    batch_cpf_run,
    batch_pf_run,
    coupled_transition,
    maximal_coupling_resample,
    transition,
    wasserstein_resample,
    RngStream,
)
from unbiasedpf.cpf import _maximal_indices, _wasserstein_indices, cpf_step
from unbiasedpf.errors import InvalidSimplex, UnsupportedDimension
from unbiasedpf.pf import _batch_values, _shared_scale, combined_rows, normalized_weights, pf_step

from _oracles import StubGen, maximal_coupling_row


def test_weight_vectors_validated():
    gen = np.random.default_rng(0)
    with pytest.raises(InvalidSimplex):
        maximal_coupling_resample(gen, np.array([0.5, -0.5, 1.0]), np.array([0.5, 0.5, 0.0]), 10)
    with pytest.raises(InvalidSimplex):
        maximal_coupling_resample(gen, np.array([0.5, 0.4]), np.array([0.5, 0.5]), 10)
    with pytest.raises(InvalidSimplex):
        maximal_coupling_resample(gen, np.array([0.5, 0.5]), np.array([0.3, 0.3, 0.4]), 10)


def test_maximal_coupling_hand_case():
    # weights (0.8, 0.2) and (0.6, 0.4): overlap 0.8, fine residual is all
    # on index 0, coarse residual all on index 1, so the joint law is
    # (0,0): 0.6, (1,1): 0.2, (0,1): 0.2 and (1,0) never happens
    gen = np.random.default_rng(7)
    n = 100000
    idx_f, idx_c, diag = maximal_coupling_resample(
        gen, np.array([0.8, 0.2]), np.array([0.6, 0.4]), n
    )
    assert diag.alpha == pytest.approx(0.8, abs=1e-15)
    se = math.sqrt(0.8 * 0.2 / n)
    assert abs(diag.matched_fraction - 0.8) < 3 * se

    joint = np.bincount(2 * idx_f + idx_c, minlength=4)
    assert joint[2] == 0  # the (1, 0) cell
    _, p = stats.chisquare(joint[[0, 1, 3]], n * np.array([0.6, 0.2, 0.2]))
    assert p > 0.01


def test_maximal_coupling_identical_weights():
    gen = np.random.default_rng(11)
    w = np.array([0.3, 0.45, 0.25])
    idx_f, idx_c, diag = maximal_coupling_resample(gen, w, w.copy(), 50000)
    assert diag.alpha == pytest.approx(1.0, abs=1e-14)
    assert diag.matched_fraction == 1.0
    assert np.array_equal(idx_f, idx_c)
    counts = np.bincount(idx_f, minlength=3)
    _, p = stats.chisquare(counts, 50000 * w)
    assert p > 0.01


def test_maximal_coupling_disjoint_supports():
    gen = np.random.default_rng(13)
    idx_f, idx_c, diag = maximal_coupling_resample(
        gen, np.array([1.0, 0.0]), np.array([0.0, 1.0]), 1000
    )
    assert diag.alpha == 0.0
    assert diag.matched_fraction == 0.0
    assert np.all(idx_f == 0)
    assert np.all(idx_c == 1)


def test_maximal_coupling_alpha_is_total_variation_overlap():
    gen = np.random.default_rng(17)
    for _ in range(20):
        wf = gen.dirichlet(np.ones(6))
        wc = gen.dirichlet(np.ones(6))
        _, _, diag = maximal_coupling_resample(gen, wf, wc, 10)
        assert diag.alpha == pytest.approx(1.0 - 0.5 * np.abs(wf - wc).sum(), abs=1e-12)


def test_maximal_coupling_marginals():
    gen = np.random.default_rng(19)
    n = 100000
    wf = np.array([0.1, 0.25, 0.35, 0.3])
    wc = np.array([0.4, 0.1, 0.2, 0.3])
    idx_f, idx_c, _ = maximal_coupling_resample(gen, wf, wc, n)
    _, p_f = stats.chisquare(np.bincount(idx_f, minlength=4), n * wf)
    _, p_c = stats.chisquare(np.bincount(idx_c, minlength=4), n * wc)
    assert p_f > 0.01
    assert p_c > 0.01


def _mixed_weight_rows(gen, rows, n):
    """Weight pairs of every kind the maximal step branches on, shuffled:
    ordinary, identical (alpha at 1 or a rounding off it), alpha within
    1e-14 of 1, disjoint supports (alpha = 0), identical and distinct point
    masses, and sparse partial overlaps."""
    pairs = []
    for r in range(rows):
        kind = r % 6
        wf, wc = gen.dirichlet(np.ones(n), size=2)
        if kind == 1:
            wc = wf.copy()
        elif kind == 2:
            wc = wf.copy()
            wc[0] += 1e-15
            wc[-1] -= 1e-15
        elif kind == 3 and n > 1:
            cut = int(gen.integers(1, n))
            wf[cut:], wc[:cut] = 0.0, 0.0
        elif kind == 4:
            wf = np.eye(n)[gen.integers(n)]
            wc = wf.copy() if r % 4 else np.eye(n)[gen.integers(n)]
        elif kind == 5:
            wf[gen.random(n) < 0.6] = 0.0
            wc[gen.random(n) < 0.6] = 0.0
            wf, wc = (w / w.sum() if w.sum() > 0 else np.eye(n)[0] for w in (wf, wc))
        pairs.append((wf, wc))
    order = gen.permutation(rows)
    return (np.array([pairs[i][0] for i in order]), np.array([pairs[i][1] for i in order]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n,size", [(1, 3), (5, 5), (40, 17), (300, 300)])
def test_stacked_maximal_step_equals_per_row_reference(n, size):
    # the row-stacked maximal step must give each row what the per-row
    # coupling gives on that row's own uniforms, bit for bit
    gen = np.random.default_rng(n)
    wf, wc = _mixed_weight_rows(gen, 240, n)
    seeds = gen.integers(2 ** 32, size=len(wf))
    idx_f, idx_c, alpha, matched = _maximal_indices(
        [np.random.default_rng(s) for s in seeds], wf, wc, size)
    assert idx_f.shape == idx_c.shape == matched.shape == (len(wf), size)
    alphas = set()
    for r, s in enumerate(seeds):
        u = np.random.default_rng(s).random((4, size))
        ref_f, ref_c, ref_alpha, ref_frac = maximal_coupling_row(wf[r], wc[r], u)
        assert np.array_equal(idx_f[r], ref_f) and np.array_equal(idx_c[r], ref_c)
        assert alpha[r, 0] == ref_alpha and matched[r].mean() == ref_frac
        alphas.add("zero" if ref_alpha == 0 else "full" if 1 - ref_alpha < 1e-14 else "part")
    assert alphas == ({"full"} if n == 1 else {"zero", "full", "part"})


def test_maximal_step_full_row_matches_above_alpha():
    # alpha = 1 - 2^-50 counts as full, so a uniform above alpha still
    # takes the shared branch, as in the per-row coupling
    wf = np.array([0.25, 0.25, 0.5])
    wc = wf + np.array([2.0 ** -50, -(2.0 ** -50), 0.0])
    u = np.array([[1 - 2.0 ** -53, 0.5], [0.1, 0.6], [0.2, 0.3], [0.9, 0.8]])
    idx_f, idx_c, alpha, matched = _maximal_indices([StubGen(uniforms=[u])], wf[None], wc[None], 2)
    ref_f, ref_c, ref_alpha, _ = maximal_coupling_row(wf, wc, u)
    assert alpha[0, 0] == ref_alpha == 1 - 2.0 ** -50 and matched.all()
    assert np.array_equal(idx_f[0], ref_f) and np.array_equal(idx_c[0], ref_c)


def test_wasserstein_marginals():
    gen = np.random.default_rng(23)
    n = 100000
    wf = np.array([0.2, 0.5, 0.3])
    wc = np.array([0.25, 0.25, 0.5])
    pos_f = np.array([[0.3], [-1.0], [0.7]])
    pos_c = np.array([[0.1], [2.0], [-0.4]])
    idx_f, idx_c = wasserstein_resample(gen, pos_f, wf, pos_c, wc, n)
    _, p_f = stats.chisquare(np.bincount(idx_f, minlength=3), n * wf)
    _, p_c = stats.chisquare(np.bincount(idx_c, minlength=3), n * wc)
    assert p_f > 0.01
    assert p_c > 0.01


def test_wasserstein_hand_case():
    # shared uniforms pushed through both weighted quantile functions;
    # positions are deliberately unsorted to exercise the argsort
    pos_f = np.array([[1.0], [0.0]])
    wf = np.array([0.5, 0.5])
    pos_c = np.array([[20.0], [10.0]])
    wc = np.array([0.75, 0.25])
    gen = StubGen(uniforms=[np.array([0.1, 0.3, 0.6, 0.9])])
    idx_f, idx_c = wasserstein_resample(gen, pos_f, wf, pos_c, wc, 4)
    assert list(idx_f) == [1, 1, 0, 0]
    assert list(idx_c) == [1, 0, 0, 0]


def test_wasserstein_is_comonotone():
    # resampled value pairs are matched by rank, so no two draws may be
    # discordant: (vf_i - vf_j)(vc_i - vc_j) >= 0 for every pair
    gen = np.random.default_rng(29)
    pos_f = gen.normal(size=(30, 1))
    pos_c = gen.normal(size=(30, 1))
    wf = gen.dirichlet(np.ones(30))
    wc = gen.dirichlet(np.ones(30))
    idx_f, idx_c = wasserstein_resample(gen, pos_f, wf, pos_c, wc, 300)
    vf = pos_f[idx_f, 0]
    vc = pos_c[idx_c, 0]
    prod = (vf[:, None] - vf[None, :]) * (vc[:, None] - vc[None, :])
    assert np.all(prod >= -1e-12)


def test_wasserstein_rejects_multidimensional_states():
    gen = np.random.default_rng(1)
    w = np.full(4, 0.25)
    pos = np.zeros((4, 2))
    with pytest.raises(UnsupportedDimension):
        wasserstein_resample(gen, pos, w, pos, w, 8)


def test_wasserstein_checks_each_weight_vector_against_its_cloud():
    gen = np.random.default_rng(1)
    pos = np.zeros((4, 1))
    w = np.full(4, 0.25)
    with pytest.raises(InvalidSimplex):
        wasserstein_resample(gen, pos, np.full(8, 0.125), pos, w, 6)
    with pytest.raises(InvalidSimplex):
        wasserstein_resample(gen, pos, w, pos, np.full(3, 1 / 3), 6)
    with pytest.raises(UnsupportedDimension):
        wasserstein_resample(gen, pos, w, np.zeros(4), w, 6)
    # clouds of different sizes are still coupled, rank by rank
    idx_f, idx_c = wasserstein_resample(gen, pos, w, np.zeros((2, 1)), np.full(2, 0.5), 6)
    assert idx_f.max() < 4 and idx_c.max() < 2


def test_wasserstein_ties_rank_as_a_stable_sort():
    # positions are ranked by quicksort, which orders tied positions
    # arbitrarily; where a row has a tie the rank must be the stable one
    def reference(u, pos, w):
        order = np.argsort(pos[:, 0], kind="stable")
        cum = np.cumsum(w[order])
        cum[-1] = 1.0
        return order[cum.searchsorted(u, side="right")]

    gen = np.random.default_rng(47)
    n = 2000
    distinct = gen.normal(size=(n, 1))
    duplicated = gen.integers(0, 25, size=(n, 1)).astype(float)
    zeros = np.where(gen.random((n, 1)) < 0.5, -0.0, 0.0)
    signed_zeros = np.where(gen.random((n, 1)) < 0.3, zeros, gen.normal(size=(n, 1)))
    clouds = [distinct, duplicated, zeros, signed_zeros]
    weights = gen.dirichlet(np.ones(n), size=len(clouds))
    for xf, wf, xc, wc in zip(clouds, weights, clouds[::-1], weights[::-1]):
        got = wasserstein_resample(np.random.default_rng(5), xf, wf, xc, wc, n)
        u = np.random.default_rng(5).random(n)
        assert np.array_equal(got[0], reference(u, xf, wf))
        assert np.array_equal(got[1], reference(u, xc, wc))
    # a stack where only the middle row has ties
    xf = np.stack([distinct, signed_zeros, -distinct])
    xc = np.stack([2 * distinct, distinct, duplicated + distinct / 1e3])
    wf, wc = weights[:3], weights[1:]
    got = _wasserstein_indices([np.random.default_rng(r) for r in range(3)], xf, wf, xc, wc, n)
    for r in range(3):
        u = np.random.default_rng(r).random(n)
        assert np.array_equal(got[0][r], reference(u, xf[r], wf[r]))
        assert np.array_equal(got[1][r], reference(u, xc[r], wc[r]))


def test_init_coupled_system_validates_scheme(ou, ou_data_n3):
    with pytest.raises(ValueError):
        batch_cpf_run(ou, ou_data_n3, BatchSchedule(8), 0, Level(2), RngStream(0),
                      scheme="antithetic")


def _start(model, n):
    return np.tile(np.asarray(model.initial_state, dtype=float), (n, 1))


def _pf_reference(model, obs, level, n, y, gen):
    # one filter step of a (1, n, 1) stack, as the engine runs it
    x = transition(model, _start(model, n)[None], level, [gen])
    return pf_step(model, level, [gen], x, obs.log_g(x[0], y)[None])[0]


@pytest.mark.parametrize("scheme", ["maximal", "wasserstein"])
def test_cpf_step_preserves_marginal_laws(ou, scheme):
    # after one weighted coupled step the fine cloud must have the law of a
    # single level-l filter step, and the coarse cloud that of level l-1
    n = 20000
    y = 0.5
    level = Level(2)
    model, obs = ou.diffusion, ou.observation
    gen = RngStream(41, (0,)).gen
    start = _start(model, n)[None]
    xf, xc = coupled_transition(model, start, start, level, [gen])
    xf, xc = cpf_step(
        model, level, [gen], scheme, xf, xc, obs.log_g(xf[0], y)[None], obs.log_g(xc[0], y)[None]
    )
    xf, xc = xf[0], xc[0]

    fine_ref = _pf_reference(model, obs, Level(2), n, y, RngStream(42, (1,)).gen)
    coarse_ref = _pf_reference(model, obs, Level(1), n, y, RngStream(43, (2,)).gen)

    _, p_f = stats.ks_2samp(xf[:, 0], fine_ref[:, 0])
    _, p_c = stats.ks_2samp(xc[:, 0], coarse_ref[:, 0])
    assert p_f > 0.01
    assert p_c > 0.01


def _fine_coarse(sizes, num, den, q):
    # combined_rows of one time and row with sides (fine, coarse): the
    # (1, 2, 1, p+1) layout of a coupled run's batch values
    out = combined_rows(sizes, np.reshape(num, (1, 2, 1, -1)), np.reshape(den, (1, 2, 1, -1)),
                        q, 1)
    return out[0, 0]


def test_increment_hand_values():
    sizes = [2, 4]
    num, den = [[1.0, 2.0], [0.5, 0.5]], [[1.0, 1.0], [1.0, 1.0]]
    fine, coarse = _fine_coarse(sizes, num, den, 1)
    assert fine == pytest.approx(5.0 / 3.0, abs=1e-15)
    assert coarse == pytest.approx(0.5, abs=1e-15)
    assert fine - coarse == pytest.approx(5.0 / 3.0 - 0.5, abs=1e-15)
    fine, coarse = _fine_coarse(sizes, num, den, 0)
    assert fine - coarse == pytest.approx(0.5, abs=1e-15)


def test_increment_vanishes_on_identical_clouds(ou):
    pos = np.linspace(-1, 1, 40).reshape(1, 40, 1)
    lg = ou.observation.log_g(pos[0], 0.3)[None]
    num, den = zip(*(_batch_values(x, lg, ou.phi, _shared_scale([lg.max(axis=-1)]))
                     for x in (pos, pos.copy())))
    fine, coarse = _fine_coarse([40], num, den, 0)
    assert fine - coarse == 0.0


def test_batch_cpf_prefix_is_bit_identical(ou, ou_data_n3):
    sched = BatchSchedule(8)
    small = batch_cpf_run(ou, ou_data_n3, sched, 1, Level(2), RngStream(44, (0,)))
    big = batch_cpf_run(ou, ou_data_n3, sched, 2, Level(2), RngStream(44, (0,)))
    assert small.shape == (3, 2) and big.shape == (3, 3)
    for q in range(2):
        assert small[:, q] == pytest.approx(big[:, q], abs=1e-12)


def test_batch_cpf_run_deterministic(ou, ou_data_n3):
    a = batch_cpf_run(ou, ou_data_n3, BatchSchedule(16), 1, Level(3), RngStream(45, (2,)))
    b = batch_cpf_run(ou, ou_data_n3, BatchSchedule(16), 1, Level(3), RngStream(45, (2,)))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("scheme", ["maximal", "wasserstein"])
def test_increment_variance_shrinks_with_level(ou, ou_data_n3, scheme):
    # the whole point of the coupling: higher levels give smaller increments
    reps = 60
    sched = BatchSchedule(200)
    var = {}
    for l in (2, 5):
        vals = np.empty(reps)
        for r in range(reps):
            vals[r] = batch_cpf_run(
                ou, ou_data_n3, sched, 0, Level(l), RngStream(46, (r, l)), scheme
            )[-1, 0]
        var[l] = vals.var(ddof=1)
    assert var[5] < var[2]


def test_coupled_estimates_track_filter_difference(ou, ou_data_n3):
    # E[increment] estimates the gap between the level-2 and level-1 filter
    # means; both are linear-Gaussian here, so the gap is known exactly
    from _oracles import linear_gaussian_filter, ou_euler_coeffs

    f2, q2 = ou_euler_coeffs(2)
    f1, q1 = ou_euler_coeffs(1)
    hi, _ = linear_gaussian_filter(ou_data_n3.y, 0.0, f2, q2, 0.2)
    lo, _ = linear_gaussian_filter(ou_data_n3.y, 0.0, f1, q1, 0.2)
    gap = hi[-1] - lo[-1]

    reps = 80
    sched = BatchSchedule(1500)
    vals = np.empty(reps)
    for r in range(reps):
        vals[r] = batch_cpf_run(ou, ou_data_n3, sched, 0, Level(2), RngStream(47, (r,)))[-1, 0]
    se = vals.std(ddof=1) / math.sqrt(reps)
    assert abs(vals.mean() - gap) < 4 * se + 1e-3
