"""The public one-cloud calls: one state or cloud and one generator.

The kernels and resamplers run on (R, N, d) stacks with a list of R
generators; a one-cloud call is the R = 1 stack. These float.hex values
were recorded when the one-cloud calls still had their own branches, so
every bit of the lifted calls is checked against them.
"""

import json
from pathlib import Path

import numpy as np

from unbiasedpf import (
    Level,
    RngStream,
    coupled_transition,
    generate_data,
    make_benchmark,
    maximal_coupling_resample,
    multinomial_indices,
    transition,
    wasserstein_resample,
)

GOLDEN = Path(__file__).parent / "golden_one_cloud.json"


def _hexes(a):
    return [v.hex() for v in np.ravel(a).tolist()]


def _weight_pairs(gen):
    """Weight pairs for the maximal coupling: ordinary, alpha = 1,
    alpha within 1e-14 of 1, alpha = 0 and large clouds."""
    wf, wc = gen.dirichlet(np.ones(6), size=2)
    w = gen.dirichlet(np.ones(5))
    near = w.copy()
    near[0] += 1e-15
    near[1] -= 1e-15
    big_f, big_c = gen.dirichlet(np.ones(2000), size=2)
    return [
        ("ordinary", wf, wc, 50),
        ("identical", w, w.copy(), 40),
        ("near", w, near, 40),
        ("disjoint", np.array([0.7, 0.3, 0.0, 0.0]), np.array([0.0, 0.0, 0.4, 0.6]), 30),
        ("point", np.array([0.0, 1.0, 0.0]), np.array([0.0, 1.0, 0.0]), 20),
        ("large", big_f, big_c, 2000),
    ]


def _one_cloud_values():
    out = {}
    cloud = np.linspace(-1.0, 1.0, 50).reshape(50, 1)
    for name in ("OU", "NLD"):
        model = make_benchmark(name).diffusion
        for l in (0, 3):
            out[f"{name}-transition-state-l{l}"] = _hexes(
                transition(model, np.array([0.4]), Level(l), RngStream(1, (l,))))
            out[f"{name}-transition-cloud-l{l}"] = _hexes(
                transition(model, cloud, Level(l), np.random.default_rng(l)))
        for l in (1, 4):
            xf, xc = coupled_transition(model, cloud, cloud + 0.1, Level(l), RngStream(2, (l,)))
            out[f"{name}-coupled-cloud-l{l}"] = [_hexes(xf), _hexes(xc)]
            xf, xc = coupled_transition(model, np.array([0.2]), np.array([0.3]), Level(l),
                                        np.random.default_rng(l))
            out[f"{name}-coupled-state-l{l}"] = [_hexes(xf), _hexes(xc)]
    # 2^11 steps of 4096 particles come in two groups of steps
    ou = make_benchmark("OU").diffusion
    big = transition(ou, np.zeros((4096, 1)), Level(11), RngStream(3))
    out["OU-transition-grouped"] = _hexes(big[::64]) + [float(big.sum()).hex()]
    xf, xc = coupled_transition(ou, np.zeros((4096, 1)), np.zeros((4096, 1)), Level(11),
                                RngStream(4))
    out["OU-coupled-grouped"] = [_hexes(xf[::64]) + [float(xf.sum()).hex()],
                                 _hexes(xc[::64]) + [float(xc.sum()).hex()]]

    gen = np.random.default_rng(5)
    for n, size in ((7, 20), (300, 300), (2000, 2000)):
        w = gen.dirichlet(np.ones(n))
        w[1::4] = 0.0
        w /= w.sum()
        out[f"multinomial-{n}"] = multinomial_indices(gen, w, size).tolist()
    out["multinomial-stream"] = multinomial_indices(RngStream(6), np.full(4, 0.25), 12).tolist()

    for case, wf, wc, size in _weight_pairs(np.random.default_rng(7)):
        idx_f, idx_c, diag = maximal_coupling_resample(np.random.default_rng(8), wf, wc, size)
        out[f"maximal-{case}"] = {"fine": idx_f.tolist(), "coarse": idx_c.tolist(),
                                  "alpha": diag.alpha.hex(),
                                  "matched_fraction": diag.matched_fraction.hex()}

    gen = np.random.default_rng(9)
    clouds = [
        ("distinct", gen.normal(size=(30, 1)), gen.normal(size=(30, 1)), 30),
        ("ties", gen.integers(0, 4, size=(30, 1)).astype(float),
         gen.integers(0, 4, size=(30, 1)).astype(float), 45),
        ("sizes", gen.normal(size=(4, 1)), gen.normal(size=(2, 1)), 6),
        ("large", gen.normal(size=(2000, 1)), gen.normal(size=(2000, 1)), 2000),
    ]
    for case, pos_f, pos_c, size in clouds:
        wf = gen.dirichlet(np.ones(len(pos_f)))
        wc = gen.dirichlet(np.ones(len(pos_c)))
        idx_f, idx_c = wasserstein_resample(np.random.default_rng(10), pos_f, wf, pos_c, wc, size)
        out[f"wasserstein-{case}"] = [idx_f.tolist(), idx_c.tolist()]

    nld = make_benchmark("NLD")
    for n, seed in ((5, 17), (8, 3)):
        out[f"NLD-data-l9-n{n}-s{seed}"] = _hexes(generate_data(nld, n, level=9, seed=seed).y)
    return out


def test_one_cloud_calls_equal_recorded_values():
    assert _one_cloud_values() == json.loads(GOLDEN.read_text())


def test_one_cloud_calls_keep_their_shapes():
    model = make_benchmark("NLD").diffusion
    gen = np.random.default_rng(0)
    assert transition(model, 0.5, Level(1), gen).shape == (1,)
    assert transition(model, np.array([0.5]), Level(1), gen).shape == (1,)
    assert transition(model, np.zeros((3, 1)), Level(1), gen).shape == (3, 1)
    xf, xc = coupled_transition(model, np.zeros(1), np.ones(1), Level(1), gen)
    assert xf.shape == xc.shape == (1,)
    xf, xc = coupled_transition(model, np.zeros((3, 1)), np.ones((3, 1)), Level(1), gen)
    assert xf.shape == xc.shape == (3, 1)
    assert multinomial_indices(gen, np.full(4, 0.25), 6).shape == (6,)
