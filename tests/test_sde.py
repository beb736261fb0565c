"""Euler kernels: hand values, marginal laws, coupling, cost, chunking."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import unbiasedpf.sde as sde
from unbiasedpf import (
    CostCounter,
    Level,
    coupled_transition,
    euler_step,
    make_benchmark,
    transition,
    RngStream,
)
from unbiasedpf.errors import InvalidLevel, NumericalOverflow
from unbiasedpf.sde import DiffusionModel, _step_groups

from _oracles import StubGen, ou_euler_coeffs


@pytest.fixture(scope="module")
def ou_model():
    return make_benchmark("OU").diffusion


def test_level_invariants():
    for l in range(13):
        lv = Level(l)
        assert lv.dt * lv.steps_per_unit == 1.0
        assert lv.steps_per_unit == 2 ** l


@pytest.mark.parametrize("bad", [-1, 1.5, "2"])
def test_level_rejects_bad_input(bad):
    with pytest.raises((InvalidLevel, TypeError)):
        Level(bad)


def test_euler_step_hand_value(ou_model):
    # x + (-x) dt + 1 * dw with x = 2, dt = 0.25, dw = 0.1
    out = euler_step(ou_model, np.array([2.0]), 0.25, np.array([0.1]))
    assert out == pytest.approx(1.6, abs=1e-15)


def _b_state(x):
    # a state-dependent, non-diagonal 2 x 2 diffusion matrix
    b = np.empty(np.shape(x)[:-1] + (2, 2))
    b[..., 0, 0], b[..., 0, 1] = 1.0, x[..., 1]
    b[..., 1, 0], b[..., 1, 1] = 0.5 * x[..., 0], 2.0
    return b


# dZ = -Z dt + b dW in d = 2, with a constant non-diagonal b and with _b_state
_PLANAR = {
    "constant": DiffusionModel(2, lambda x: -x,
                               lambda x: np.broadcast_to([[1.0, 0.5], [0.2, 2.0]],
                                                         np.shape(x)[:-1] + (2, 2)),
                               np.zeros(2), True, "planar"),
    "state": DiffusionModel(2, lambda x: -x, _b_state, np.zeros(2), False, "planar-b(x)"),
}


@pytest.mark.parametrize("kind,want", [("constant", [0.75, 1.12]), ("state", [0.45, 1.15])])
def test_euler_step_hand_value_in_two_dimensions(kind, want):
    # x + (-x) dt + b dw with x = (1, 2), dt = 0.25, dw = (0.1, -0.2):
    # constant b dw = (0.1 - 0.1, 0.02 - 0.4); b(x) = ((1, 2), (0.5, 2)),
    # b(x) dw = (0.1 - 0.4, 0.05 - 0.4)
    out = euler_step(_PLANAR[kind], np.array([1.0, 2.0]), 0.25, np.array([0.1, -0.2]))
    assert out == pytest.approx(want, abs=1e-15)


@pytest.mark.parametrize("kind", list(_PLANAR))
def test_two_dimensional_kernels_equal_a_per_step_loop(kind):
    # transition and coupled_transition against euler_step, step by step, on
    # the same generator draws: the fine chain on each increment, the
    # coarse one on pairwise sums with twice the step
    model, level = _PLANAR[kind], Level(3)
    x = np.linspace(-1, 1, 10).reshape(5, 2)
    dt, steps = level.dt, level.steps_per_unit

    def increments(key):  # one block of every step, as the kernel draws them here
        return RngStream(5, key).gen.standard_normal((steps,) + x.shape) * math.sqrt(dt)

    assert _step_groups(steps, *x.shape) == [steps]
    dw, fine = increments((0,)), x
    for s in range(steps):
        fine = euler_step(model, fine, dt, dw[s])
    assert np.array_equal(transition(model, x, level, RngStream(5, (0,))), fine)
    dw, fine, coarse = increments((1,)), x, 0.5 * x
    for s in range(steps):
        fine = euler_step(model, fine, dt, dw[s])
    for s in range(0, steps, 2):
        coarse = euler_step(model, coarse, 2 * dt, dw[s] + dw[s + 1])
    xf, xc = coupled_transition(model, x, 0.5 * x, level, RngStream(5, (1,)))
    assert np.array_equal(xf, fine) and np.array_equal(xc, coarse)


def test_euler_step_batch_shape(ou_model):
    x = np.arange(6, dtype=float).reshape(6, 1)
    out = euler_step(ou_model, x, 0.5, np.zeros((6, 1)))
    assert out.shape == (6, 1)
    assert np.allclose(out[:, 0], 0.5 * x[:, 0])


def test_euler_step_overflow_raises():
    blower = DiffusionModel(
        dim=1,
        drift=lambda x: np.full_like(x, np.inf),
        diffusion=lambda x: np.ones(np.shape(x)[:-1] + (1, 1)),
        initial_state=np.zeros(1),
        name="blowup",
    )
    with pytest.raises(NumericalOverflow):
        euler_step(blower, np.array([1.0]), 1.0, np.array([0.0]))


def test_state_dimension_checked(ou_model):
    with pytest.raises(ValueError):
        euler_step(ou_model, np.zeros((4, 2)), 0.5, np.zeros((4, 2)))


def test_step_groups_partition_evenly():
    for steps in (1, 2, 8, 64, 4096):
        for n in (1, 7, 1000, 4000, 20_000, 3_000_000):
            for d in (1, 3):
                groups = _step_groups(steps, n, d)
                assert sum(groups) == steps
                # all groups but the last are even, so fine-step pairs for the
                # coarse chain never straddle a group boundary
                assert all(g % 2 == 0 for g in groups[:-1])
                # one generator call fills at most _MAX_BLOCK doubles, or one
                # pair of steps when a pair alone is larger
                assert max(groups) * n * d <= max(sde._MAX_BLOCK, 2 * n * d)


def test_transition_matches_linear_gaussian_law(ou_model):
    # the level-l OU Euler kernel over one unit of time is exactly
    # N(f_l x, q_l); check the sampled cloud against that law
    level = Level(2)
    x0 = 1.0
    n = 20000
    x = np.full((n, 1), x0)
    out = transition(ou_model, x, level, RngStream(99, (0,)))
    f, q = ou_euler_coeffs(2)
    _, p = stats.kstest(out[:, 0], "norm", args=(f * x0, math.sqrt(q)))
    assert p > 0.01


def test_transition_cost_exact(ou_model):
    for n, l in [(1, 0), (13, 3), (257, 5)]:
        c = CostCounter()
        transition(ou_model, np.zeros((n, 1)), Level(l), RngStream(1), c)
        assert c.euler_steps == n * 2 ** l


def test_coupled_cost_exact(ou_model):
    for n, l in [(2, 1), (10, 4)]:
        c = CostCounter()
        coupled_transition(
            ou_model, np.zeros((n, 1)), np.zeros((n, 1)), Level(l), RngStream(1), c
        )
        assert c.euler_steps == n * (2 ** l + 2 ** (l - 1))


def test_coupled_transition_hand_value(ou_model):
    # level 1 from x = 1 with increments (0.2, -0.2) * sqrt(1/2):
    # fine chain:   x1 = 0.5 + 0.2 s,  x2 = 0.5 x1 - 0.2 s = 0.25 - 0.1 s
    # coarse chain: one step of size 1 on the summed increment, which is 0,
    # so x_c = 1 - 1 = 0
    gen = StubGen(normals=[np.array([0.2, -0.2])])
    xf, xc = coupled_transition(
        ou_model, np.array([[1.0]]), np.array([[1.0]]), Level(1), gen
    )
    s = math.sqrt(0.5)
    assert xf[0, 0] == pytest.approx(0.25 - 0.1 * s, abs=1e-15)
    assert xc[0, 0] == pytest.approx(0.0, abs=1e-15)


def test_coupled_marginals_match_single_level(ou_model):
    # each side of the coupled kernel has exactly the single-level law
    n = 20000
    level = Level(3)
    x = np.full((n, 1), 0.7)
    xf, xc = coupled_transition(ou_model, x, x, level, RngStream(5, (1,)))
    fine_direct = transition(ou_model, x, Level(3), RngStream(6, (2,)))
    coarse_direct = transition(ou_model, x, Level(2), RngStream(7, (3,)))
    _, p_f = stats.ks_2samp(xf[:, 0], fine_direct[:, 0])
    _, p_c = stats.ks_2samp(xc[:, 0], coarse_direct[:, 0])
    assert p_f > 0.01
    assert p_c > 0.01


def test_coupled_chains_stay_close(ou_model):
    # on a constant-diffusion model the shared noise keeps the pair close:
    # the fine/coarse gap must be far smaller than the state spread
    n = 5000
    x = np.zeros((n, 1))
    xf, xc = coupled_transition(ou_model, x, x, Level(6), RngStream(21))
    gap = np.std(xf - xc)
    spread = np.std(xf)
    assert gap < 0.1 * spread


def test_coupled_needs_level_one(ou_model):
    with pytest.raises(InvalidLevel):
        coupled_transition(
            ou_model, np.zeros((2, 1)), np.zeros((2, 1)), Level(0), RngStream(0)
        )


def test_transition_deterministic_in_stream(ou_model):
    x = np.linspace(-1, 1, 50).reshape(50, 1)
    a = transition(ou_model, x, Level(4), RngStream(3, (9,)))
    b = transition(ou_model, x, Level(4), RngStream(3, (9,)))
    assert np.array_equal(a, b)


def _kernel_runs(model, seed, l, rows=3):
    """transition and coupled_transition of one cloud and of an (R, N, 1)
    stack of R = rows clouds, at level l, on streams keyed by seed."""
    n = 24
    x = np.linspace(-1, 1, n).reshape(n, 1)
    stack = np.stack([x + 0.1 * r for r in range(rows)])

    def gens(role):
        return [RngStream(seed, (role, r)).gen for r in range(rows)]

    return (
        transition(model, x, Level(l), RngStream(seed, (0,))),
        *coupled_transition(model, x, 0.5 * x, Level(l), RngStream(seed, (1,))),
        transition(model, stack, Level(l), gens(2)),
        *coupled_transition(model, stack, 0.5 * stack, Level(l), gens(3)),
    )


def test_chunked_draws_match_single_block(monkeypatch):
    # the block budget only decides how each row's increments are split
    # across generator calls; a Generator gives the same stream however it
    # is split, so every budget gives the numbers of one call per row, bit
    # for bit. On a 24-particle cloud, budgets of 1 and 24 doubles force
    # the two-step minimum, 5 * 24 groups of 4 steps, and 48 * 24 groups
    # of 48 steps and a last one of 16 at level 6.
    for name in ("OU", "NLD"):
        model = make_benchmark(name).diffusion
        for seed in (0, 13, 2024):
            for l in (1, 3, 6):
                monkeypatch.setattr(sde, "_MAX_BLOCK", 2 ** 40)
                whole = _kernel_runs(model, seed, l)
                for budget in (1, 24, 5 * 24, 48 * 24):
                    monkeypatch.setattr(sde, "_MAX_BLOCK", budget)
                    for a, b in zip(whole, _kernel_runs(model, seed, l)):
                        assert np.array_equal(a, b)


@pytest.mark.parametrize("l", [6, 8, 10])
def test_kernel_memory_does_not_grow_with_level(l):
    # the peak of one transition is its increments block plus a few
    # cloud-sized temporaries, and the coupled kernel adds the half-block
    # of coarse sums: a bound with no level in it (a single block of the
    # unit time's increments would be 2^l n d doubles, 64 n d at level 6)
    nld = make_benchmark("NLD").diffusion
    n, d = 4000, 1
    x = np.full((n, d), 0.3)
    bound = 8 * (2 * sde._MAX_BLOCK + 16 * n * d)
    for run in (
        lambda: transition(nld, x, Level(l), RngStream(3, (l,))),
        lambda: coupled_transition(nld, x, x, Level(l), RngStream(3, (l,))),
    ):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


def test_nonconstant_diffusion_coupled_marginals():
    # same marginal check for a state-dependent diffusion coefficient
    nld = make_benchmark("NLD").diffusion
    n = 20000
    x = np.full((n, 1), 0.3)
    xf, xc = coupled_transition(nld, x, x, Level(3), RngStream(31, (0,)))
    coarse_direct = transition(nld, x, Level(2), RngStream(32, (1,)))
    _, p = stats.ks_2samp(xc[:, 0], coarse_direct[:, 0])
    assert p > 0.01
