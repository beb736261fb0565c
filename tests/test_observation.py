"""Observation densities, benchmark wiring, data generation, references."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from unbiasedpf import (
    DataSet,
    ObservationModel,
    exact_unit_transition,
    generate_data,
    kalman_reference,
    make_benchmark,
    read_dataset,
    write_dataset,
    RngStream,
)
from unbiasedpf import observation
from unbiasedpf.errors import ExactUnavailable, ModelMismatch, UnknownModel

from _oracles import GridFilter, StubGen, linear_gaussian_filter, ou_exact_coeffs


def test_family_and_link_validation():
    with pytest.raises(ValueError):
        ObservationModel("cauchy", "identity")
    with pytest.raises(ValueError):
        ObservationModel("gaussian", "probit")
    with pytest.raises(ValueError):
        ObservationModel("laplace", "log_var")
    with pytest.raises(ValueError):
        ObservationModel("gaussian", "identity", scale=0.0)


def test_log_g_gaussian_identity_matches_scipy():
    m = ObservationModel("gaussian", "identity", scale=0.2)
    x = np.linspace(-2, 2, 9).reshape(9, 1)
    got = m.log_g(x, 0.7)
    want = stats.norm.logpdf(0.7, loc=x[:, 0], scale=math.sqrt(0.2))
    assert np.allclose(got, want, atol=1e-12)


def test_log_g_laplace_matches_scipy():
    m = ObservationModel("laplace", "identity", scale=math.sqrt(0.1))
    x = np.linspace(-1, 1, 7).reshape(7, 1)
    got = m.log_g(x, -0.3)
    want = stats.laplace.logpdf(-0.3, loc=x[:, 0], scale=math.sqrt(0.1))
    assert np.allclose(got, want, atol=1e-12)


def test_log_g_guarded_log_link_matches_scipy():
    m = ObservationModel("gaussian", "log_abs_eps", scale=0.01, eps=1e-12)
    x = np.array([[2.0], [0.5], [-3.0], [0.0]])
    loc = np.log(np.maximum(np.abs(x[:, 0]), 1e-12))
    got = m.log_g(x, 0.1)
    want = stats.norm.logpdf(0.1, loc=loc, scale=0.1)
    assert np.allclose(got, want, atol=1e-12)


def test_log_g_log_var_matches_scipy():
    m = ObservationModel("gaussian", "log_var")
    x = np.array([[0.0], [1.3], [-2.0]])
    got = m.log_g(x, 0.9)
    want = stats.norm.logpdf(0.9, loc=0.0, scale=np.exp(0.5 * x[:, 0]))
    assert np.allclose(got, want, atol=1e-12)


@pytest.mark.parametrize(
    "model,x",
    [
        (ObservationModel("gaussian", "identity", scale=0.2), 0.4),
        (ObservationModel("laplace", "identity", scale=0.5), -1.1),
        (ObservationModel("gaussian", "log_var"), 0.8),
    ],
)
def test_density_integrates_to_one(model, x):
    xs = np.array([x])
    val, _ = quad(lambda y: math.exp(float(model.log_g(xs, y))), -40, 40, limit=200)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_sampling_matches_density():
    gen = np.random.default_rng(41)
    m = ObservationModel("gaussian", "identity", scale=0.2)
    ys = m.sample(np.full((20000, 1), 0.3), gen)
    _, p = stats.kstest(ys, "norm", args=(0.3, math.sqrt(0.2)))
    assert p > 0.01

    mv = ObservationModel("gaussian", "log_var")
    ys = mv.sample(np.full((20000, 1), 1.2), gen)
    _, p = stats.kstest(ys, "norm", args=(0.0, math.exp(0.6)))
    assert p > 0.01

    ml = ObservationModel("laplace", "identity", scale=0.7)
    ys = ml.sample(np.full((20000, 1), -0.5), gen)
    _, p = stats.kstest(ys, "laplace", args=(-0.5, 0.7))
    assert p > 0.01


def test_make_benchmark_constants():
    ou = make_benchmark("OU")
    assert ou.diffusion.constant_diffusion
    assert ou.observation.scale == 0.2
    assert ou.params == {"theta": 1.0, "mu": 0.0, "tau2": 0.2}

    gbm = make_benchmark("gbm")
    assert not gbm.diffusion.constant_diffusion
    assert gbm.observation.link == "log_abs_eps"
    assert float(gbm.diffusion.initial_state[0]) == 1.0

    lan = make_benchmark("Langevin")
    assert lan.diffusion.constant_diffusion
    assert lan.observation.link == "log_var"

    nld = make_benchmark("NLD")
    assert not nld.diffusion.constant_diffusion
    assert nld.observation.family == "laplace"

    with pytest.raises(UnknownModel):
        make_benchmark("CIR")


def test_benchmark_drift_and_diffusion_values():
    lan = make_benchmark("Langevin").diffusion
    # -(nu + 1) x / (2 (nu + x^2)) at x = 1, nu = 10: -11 / 22 = -0.5
    assert lan.drift(np.array([[1.0]]))[0, 0] == pytest.approx(-0.5, abs=1e-15)
    nld = make_benchmark("NLD").diffusion
    assert nld.diffusion(np.array([[0.0]]))[0, 0, 0] == pytest.approx(1.0)
    assert nld.diffusion(np.array([[1.0]]))[0, 0, 0] == pytest.approx(1 / math.sqrt(2))
    gbm = make_benchmark("GBM").diffusion
    assert gbm.drift(np.array([[2.0]]))[0, 0] == pytest.approx(0.04, abs=1e-15)
    assert gbm.diffusion(np.array([[2.0]]))[0, 0, 0] == pytest.approx(0.4, abs=1e-15)


def test_exact_transition_hand_values():
    ou = make_benchmark("OU")
    out = exact_unit_transition(ou, np.array([[1.0]]), StubGen(normals=[np.array([1.0])]))
    assert out[0, 0] == pytest.approx(0.36787944117144233 + 0.6575198539828996, abs=1e-12)

    gbm = make_benchmark("GBM")
    # drift term mu - sigma^2 / 2 vanishes for mu = 0.02, sigma = 0.2
    out = exact_unit_transition(gbm, np.array([[3.0]]), StubGen(normals=[np.array([1.0])]))
    assert out[0, 0] == pytest.approx(3.0 * 1.2214027581601699, abs=1e-12)

    with pytest.raises(ExactUnavailable):
        exact_unit_transition(make_benchmark("NLD"), np.zeros((1, 1)), StubGen())


def test_exact_transition_marginal_law():
    ou = make_benchmark("OU")
    gen = np.random.default_rng(8)
    out = exact_unit_transition(ou, np.full((20000, 1), 0.5), gen)
    f, q = ou_exact_coeffs()
    _, p = stats.kstest(out[:, 0], "norm", args=(0.5 * f, math.sqrt(q)))
    assert p > 0.01


def test_generate_data_reproducible(ou):
    a = generate_data(ou, 6, level="exact", seed=4)
    b = generate_data(ou, 6, level="exact", seed=4)
    assert np.array_equal(a.y, b.y)
    assert a.n == 6 and a.level == "exact" and a.model == "OU"
    c = generate_data(ou, 6, level="exact", seed=5)
    assert not np.array_equal(a.y, c.y)


def test_generate_data_euler_level_recorded(nld):
    d = generate_data(nld, 3, level=7, seed=2)
    assert d.level == 7 and d.n == 3
    with pytest.raises(ExactUnavailable):
        generate_data(nld, 3, level="exact", seed=2)
    with pytest.raises(ValueError):
        generate_data(nld, 0, level=7)


def test_generate_data_zero_noise_path(ou, monkeypatch):
    # with all increments forced to zero the latent OU path contracts by
    # e^-1 each unit of time and the observations equal the latent states
    def stub_stream(normals):
        stub = StubGen(normals=normals)
        monkeypatch.setattr(observation, "RngStream", lambda *args: type("S", (), {"gen": stub})())

    stub_stream([np.zeros(1) for _ in range(6)])
    d = generate_data(ou, 3, level="exact", seed=0)
    f = math.exp(-1.0)
    assert np.allclose(d.y, [0.0, 0.0, 0.0], atol=1e-15)
    # starting off zero the contraction is visible
    stub_stream([np.array([1.0])] + [np.zeros(1) for _ in range(5)])
    d = generate_data(ou, 3, level="exact", seed=0)
    x1 = 0.6575198539828996
    assert d.y[0] == pytest.approx(x1, abs=1e-12)
    assert d.y[1] == pytest.approx(x1 * f, abs=1e-12)
    assert d.y[2] == pytest.approx(x1 * f * f, abs=1e-12)


def test_kalman_reference_hand_value(ou):
    data = DataSet(y=[1.0], model="OU")
    out = kalman_reference(ou, data)
    assert out.shape == (1, 2)
    assert out[0, 0] == pytest.approx(0.6837106351605142, abs=1e-12)
    assert out[0, 1] == pytest.approx(0.1367421270321028, abs=1e-12)


def test_kalman_reference_matches_independent_recursion(ou):
    f, q = ou_exact_coeffs()
    gen = np.random.default_rng(123)
    for _ in range(20):
        n = int(gen.integers(1, 12))
        ys = gen.normal(0.0, 1.0, n)
        data = DataSet(y=ys, model="OU")
        got = kalman_reference(ou, data)
        means, variances = linear_gaussian_filter(ys, 0.0, f, q, 0.2)
        assert np.allclose(got[:, 0], means, atol=1e-12)
        assert np.allclose(got[:, 1], variances, atol=1e-12)


def test_kalman_reference_matches_quadrature(ou, ou_data):
    f, q = ou_exact_coeffs()
    gf = GridFilter(
        mean_fn=lambda z: f * z, var_fn=lambda z: q, substeps=1, x0=0.0
    )
    means, variances = gf.run(ou_data.y, lambda x, y: ou.observation.log_g(x[:, None], y))
    got = kalman_reference(ou, ou_data)
    assert np.allclose(got[:, 0], means, atol=1e-6)
    assert np.allclose(got[:, 1], variances, atol=1e-6)


def test_kalman_reference_uninformative_observations(ou):
    # with a huge observation variance the filter mean stays at the prior
    flat = replace(ou, observation=ObservationModel("gaussian", "identity", scale=1e8))
    data = DataSet(y=[5.0, -3.0, 4.0], model="OU")
    out = kalman_reference(flat, data)
    assert np.all(np.abs(out[:, 0]) < 1e-4)


def test_kalman_reference_guards(ou, nld):
    with pytest.raises(ModelMismatch):
        kalman_reference(nld, DataSet(y=[0.0], model="NLD"))
    skew = replace(ou, observation=ObservationModel("gaussian", "log_var"))
    with pytest.raises(ModelMismatch):
        kalman_reference(skew, DataSet(y=[0.0], model="OU"))
    with pytest.raises(ModelMismatch):
        kalman_reference(ou, DataSet(y=[0.0], model="GBM"))


def test_dataset_round_trip(tmp_path, ou):
    data = generate_data(ou, 7, level="exact", seed=9)
    path = tmp_path / "data.csv"
    write_dataset(data, path)
    back = read_dataset(path)
    assert np.array_equal(back.y, data.y)
    assert back.model == "OU" and back.level == "exact" and back.seed == 9
    assert back.params == data.params

    # the sidecar is optional; without it only the values survive
    (tmp_path / "data.meta.json").unlink()
    bare = read_dataset(path)
    assert np.array_equal(bare.y, data.y)
    assert bare.model == ""


@pytest.mark.parametrize("text,message", [
    ("k,x\n1,0.5\n", "has no 'y' column"),
    ("", "has no 'y' column"),
    ("k,y\n", "has no observations"),
    ("k,y\n1,0.5\n2\n", "line 3: could not convert"),
    ("k,y\n1,abc\n", "line 2: could not convert"),
])
def test_read_dataset_rejects_malformed_files(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message) as info:
        read_dataset(path)
    assert str(path) in str(info.value)


def test_observation_labels_are_one_based():
    d = DataSet(y=[0.5, -0.5])
    assert list(d.observations()) == [(1, 0.5), (2, -0.5)]
