"""Reference computations the benchmark checks the program against.

Nothing here imports unbiasedpf: the observation records, the filter means
and the Euler-step costs are computed from the model definitions alone, so
agreement with the program is evidence rather than circularity.

* The observation records are simulated here from fixed data seeds and
  handed to the program as inputs.
* OU: the level-l Euler kernel composed over one unit of time is again
  linear-Gaussian, x' = f_l x + N(0, q_l), so a scalar Kalman recursion
  gives the level-l filter means exactly.
* NLD: a grid quadrature filter pushes a probability vector through the
  level-l Euler kernel (2^l Gaussian substeps, composed by repeated
  squaring of the one-substep transition matrix) and reweights it by the
  Laplace observation density. Before it is trusted, the same code is run
  on OU and compared with the Kalman recursion.
* Euler-step costs are the closed forms of one draw, one MLPF run and one
  reference repeat.

The NLD quadrature means take a few seconds, so they are cached in
oracle_cache.json together with the records they belong to. Rebuild the
cache with `python3 perfbench/oracles.py --rebuild` from the repository
root; `--check` recomputes everything and compares it with the cache.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

CACHE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracle_cache.json")

OU_TAU2 = 0.2                # Gaussian observation variance of OU
NLD_SCALE = math.sqrt(0.1)   # Laplace observation scale of NLD

OU_N = 10
OU_DATA_SEED = 2002
NLD_N = 20
NLD_GEN_LEVEL = 9
NLD_DATA_SEED = 3747
NLD_MLPF_LEVEL = 6           # allocate(6, "nonconstant")
NLD_REF_LEVEL = 8            # reference --desk

# Grid of the quadrature filter: NLD's stationary sd is below 0.71, so
# [-4, 4] loses no mass that float64 can see, and a spacing of 0.008 keeps
# about two grid points per substep standard deviation out to |x| = 4 at
# level 8 (sd = 2^-4 / sqrt(1 + x^2)). Doubling the points moves the
# level-8 means by less than 1e-5.
GRID_LO, GRID_HI, GRID_POINTS = -4.0, 4.0, 1001
QUADRATURE_OU_TOL = 1e-6


# ---------------------------------------------------------------- records

def simulate_ou(n, seed):
    """OU (theta = 1, unit diffusion) from x* = 0 by its exact transition,
    observed through N(x, 0.2); y[k] is emitted by X_k."""
    gen = np.random.Generator(np.random.PCG64(seed))
    f = math.exp(-1.0)
    sd = math.sqrt((1.0 - math.exp(-2.0)) / 2.0)
    x = 0.0
    ys = []
    for _ in range(n):
        x = f * x + sd * float(gen.standard_normal())
        ys.append(x + math.sqrt(OU_TAU2) * float(gen.standard_normal()))
    return ys


def simulate_nld(n, level, seed):
    """NLD, dX = -X dt + (1 + X^2)^(-1/2) dW from x* = 0, by the level-`level`
    Euler scheme, observed through Laplace(x, sqrt(0.1))."""
    gen = np.random.Generator(np.random.PCG64(seed))
    steps = 2 ** level
    dt = 2.0 ** (-level)
    sq = math.sqrt(dt)
    x = 0.0
    ys = []
    for _ in range(n):
        for z in gen.standard_normal(steps):
            x = x - x * dt + sq * float(z) / math.sqrt(1.0 + x * x)
        ys.append(float(gen.laplace(x, NLD_SCALE)))
    return ys


# ---------------------------------------------------------------- filters

def ou_euler_coeffs(level):
    """(f_l, q_l) of 2^l OU Euler steps of size 2^-l composed."""
    steps = 2 ** level
    dt = 2.0 ** (-level)
    r = 1.0 - dt
    return r ** steps, dt * (1.0 - r ** (2 * steps)) / (1.0 - r * r)


def ou_euler_filter(ys, level):
    """Level-l OU filter means E[X_k | y_1..y_{k+1}] by the Kalman recursion."""
    f, q = ou_euler_coeffs(level)
    m_pred, v_pred = 0.0, q
    out = []
    for y in ys:
        gain = v_pred / (v_pred + OU_TAU2)
        m = m_pred + gain * (y - m_pred)
        v = (1.0 - gain) * v_pred
        out.append(m)
        m_pred, v_pred = f * m, f * f * v + q
    return np.array(out)


def quadrature_filter(drift, diffusion, log_g, ys, level):
    """Level-l Euler filter means on a fixed grid.

    The substep x -> N(x + a(x) dt, b(x)^2 dt) becomes a row-stochastic
    matrix on the grid; 2^l substeps are l squarings of it. The chain starts
    at the grid point 0 and makes one unit transition before each
    observation.
    """
    grid = np.linspace(GRID_LO, GRID_HI, GRID_POINTS)
    dt = 2.0 ** (-level)
    mean = grid + drift(grid) * dt
    var = diffusion(grid) ** 2 * dt
    kern = np.exp(-0.5 * (grid[None, :] - mean[:, None]) ** 2 / var[:, None])
    kern /= kern.sum(axis=1, keepdims=True)
    for _ in range(level):
        kern = kern @ kern
    prob = np.zeros(GRID_POINTS)
    prob[GRID_POINTS // 2] = 1.0
    out = []
    for y in ys:
        prob = prob @ kern
        lg = log_g(grid, y)
        prob = prob * np.exp(lg - lg.max())
        prob /= prob.sum()
        out.append(float(prob @ grid))
    return np.array(out)


def nld_filter(ys, level):
    return quadrature_filter(
        lambda x: -x,
        lambda x: 1.0 / np.sqrt(1.0 + x * x),
        lambda x, y: -np.abs(y - x) / NLD_SCALE,
        ys, level,
    )


def ou_quadrature_filter(ys, level):
    return quadrature_filter(
        lambda x: -x,
        lambda x: np.ones_like(x),
        lambda x, y: -0.5 * (y - x) ** 2 / OU_TAU2,
        ys, level,
    )


def quadrature_vs_ou(level):
    """Largest gap between the quadrature filter and the Kalman recursion on
    the OU record, at the given level."""
    ys = simulate_ou(OU_N, OU_DATA_SEED)
    return float(np.max(np.abs(ou_quadrature_filter(ys, level) - ou_euler_filter(ys, level))))


# ---------------------------------------------------------------- costs

def draw_cost(l, p, n, n0):
    """Euler steps of one randomized draw: N_p = n0 2^p particles (pairs for
    l >= 1, costing 2^l + 2^(l-1) per unit) over n unit transitions."""
    per_unit = 1 if l == 0 else (1 << l) + (1 << (l - 1))
    return n * (n0 << p) * per_unit


def mlpf_sizes(big_l, c1=1.0):
    """Non-constant-diffusion allocation M_l = ceil(c1 2^(2L - l) max(L, 1))."""
    return [math.ceil(c1 * 2.0 ** (2 * big_l - l) * max(big_l, 1)) for l in range(big_l + 1)]


def mlpf_cost(n, sizes):
    """Euler steps of one MLPF run with particle counts `sizes` per level."""
    return sum(
        n * m * (1 if l == 0 else (1 << l) + (1 << (l - 1)))
        for l, m in enumerate(sizes)
    )


def reference_cost(n, level, particles, repeats):
    """Euler steps of the particle-filter reference: repeats x n x particles x 2^level."""
    return repeats * n * particles * (1 << level)


# ---------------------------------------------------------------- cache

def build_cache():
    gap = max(quadrature_vs_ou(l) for l in (NLD_MLPF_LEVEL, NLD_REF_LEVEL))
    if gap > QUADRATURE_OU_TOL:
        raise RuntimeError(f"quadrature filter misses the OU Kalman recursion by {gap:.3g}")
    ys = simulate_nld(NLD_N, NLD_GEN_LEVEL, NLD_DATA_SEED)
    return {
        "quadrature_vs_ou_max_gap": gap,
        "ou": {"n": OU_N, "data_seed": OU_DATA_SEED, "y": simulate_ou(OU_N, OU_DATA_SEED)},
        "nld": {
            "n": NLD_N,
            "gen_level": NLD_GEN_LEVEL,
            "data_seed": NLD_DATA_SEED,
            "y": ys,
            "mean_level%d" % NLD_MLPF_LEVEL: nld_filter(ys, NLD_MLPF_LEVEL).tolist(),
            "mean_level%d" % NLD_REF_LEVEL: nld_filter(ys, NLD_REF_LEVEL).tolist(),
        },
    }


def read_cache():
    with open(CACHE_PATH) as fh:
        return json.load(fh)


def load_cache():
    """The cached records and NLD filter means, after checking that the
    records still match what the simulators produce."""
    cache = read_cache()
    if (cache["ou"]["y"] != simulate_ou(OU_N, OU_DATA_SEED)
            or cache["nld"]["y"] != simulate_nld(NLD_N, NLD_GEN_LEVEL, NLD_DATA_SEED)):
        raise RuntimeError(f"{CACHE_PATH} is stale; rebuild it with --rebuild")
    return cache


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--rebuild", action="store_true", help="recompute and write the cache")
    group.add_argument("--check", action="store_true", help="recompute and compare with the cache")
    args = ap.parse_args(argv)
    fresh = build_cache()
    if args.rebuild:
        with open(CACHE_PATH, "w") as fh:
            json.dump(fresh, fh, indent=1)
            fh.write("\n")
        print(f"wrote {CACHE_PATH}; quadrature vs OU gap {fresh['quadrature_vs_ou_max_gap']:.3g}")
        return 0
    cached = read_cache()
    # The record is compared exactly; the means allow for another BLAS
    # summing the matrix powers in another order.
    same = cached["ou"] == fresh["ou"] and cached["nld"]["y"] == fresh["nld"]["y"] and all(
        np.allclose(cached["nld"][k], fresh["nld"][k], rtol=0.0, atol=1e-9)
        for k in fresh["nld"] if k.startswith("mean_")
    )
    if not same:
        print("oracle cache differs from a fresh computation", file=sys.stderr)
        return 1
    print(f"oracle cache matches; quadrature vs OU gap {fresh['quadrature_vs_ou_max_gap']:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
