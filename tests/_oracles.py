"""Independent reference solvers the tests check the package against.

Nothing here imports from unbiasedpf except in the test modules themselves,
so agreement between these solvers and the package is evidence rather than
circularity. Two oracles are provided:

* a scalar linear-Gaussian filter parametrized by its one-step coefficients
  (f, q), which covers both the exact OU transition and the OU Euler kernel
  at any level, whose unit-time composition is again linear-Gaussian;
* a quadrature filter on a fixed grid that pushes a density through a chain
  of Gaussian substeps and reweights by an arbitrary log-density, covering
  nonlinear models and non-Gaussian observation channels.
"""

import math

import numpy as np


def ou_exact_coeffs(theta=1.0):
    """(f, q) of the exact OU unit-time transition x' ~ N(f x, q) (mu = 0)."""
    f = math.exp(-theta)
    q = (1.0 - math.exp(-2.0 * theta)) / (2.0 * theta)
    return f, q


def ou_euler_coeffs(level, theta=1.0, sigma2=1.0):
    """(f_l, q_l) of the level-l OU Euler kernel composed over one unit of time.

    Each Euler step is x' = (1 - theta dt) x + sigma sqrt(dt) xi with
    dt = 2^-level, so 2^level steps compose to a linear-Gaussian kernel with
    f_l = (1 - theta dt)^(2^level) and q_l the geometric sum of the
    per-step variances pushed through the remaining contractions.
    """
    steps = 2 ** level
    dt = 2.0 ** (-level)
    r = 1.0 - theta * dt
    f = r ** steps
    if abs(1.0 - r * r) < 1e-15:
        q = sigma2 * dt * steps
    else:
        q = sigma2 * dt * (1.0 - r ** (2 * steps)) / (1.0 - r * r)
    return f, q


def linear_gaussian_filter(ys, x0, f, q, tau2):
    """Exact filter moments for x_{k+1} = f x_k + N(0, q), y = x + N(0, tau2).

    The latent chain starts from the deterministic point x0 and makes one
    transition before the first observation. Returns (means, variances),
    each of length len(ys), for the filtering law after each update.
    """
    means = np.empty(len(ys))
    variances = np.empty(len(ys))
    m_pred = f * x0
    v_pred = q
    for k, y in enumerate(ys):
        gain = v_pred / (v_pred + tau2)
        m = m_pred + gain * (y - m_pred)
        v = v_pred * tau2 / (v_pred + tau2)
        means[k] = m
        variances[k] = v
        m_pred = f * m
        v_pred = f * f * v + q
    return means, variances


def _norm_pdf(x, mean, var):
    return np.exp(-0.5 * (x - mean) ** 2 / var) / np.sqrt(2.0 * math.pi * var)


class GridFilter:
    """Quadrature filter on a fixed grid with Gaussian substep kernels.

    Each unit of observation time applies `substeps` kernel steps whose
    conditional law given a source point z is N(mean_fn(z), var_fn(z)), then
    reweights the density by exp(log_g(x, y)). With substeps = 1 and the
    exact transition moments this is the true filter; with substeps = 2^l
    and the Euler moments (z + a(z) dt, b(z)^2 dt) it is the exact law of
    the level-l particle filter's target.
    """

    def __init__(self, mean_fn, var_fn, substeps, x0, lo=-8.0, hi=8.0, points=1601):
        self.grid = np.linspace(lo, hi, points)
        dx = self.grid[1] - self.grid[0]
        self.quad_w = np.full(points, dx)
        self.quad_w[0] = self.quad_w[-1] = dx / 2.0
        # kernel[i, j] = density at grid[i] of one substep started at grid[j]
        mean = np.asarray(mean_fn(self.grid))
        var = np.asarray(var_fn(self.grid)) * np.ones_like(self.grid)
        self.kernel = _norm_pdf(self.grid[:, None], mean[None, :], var[None, :])
        self.substeps = int(substeps)
        self.x0 = float(x0)
        self.mean_fn = mean_fn
        self.var_fn = var_fn

    def _predict(self, dens):
        if dens is None:
            # first substep from the deterministic start is an exact Gaussian
            m0 = float(np.asarray(self.mean_fn(np.array([self.x0]))).reshape(-1)[0])
            v0 = float(np.asarray(self.var_fn(np.array([self.x0]))).reshape(-1)[0])
            dens = _norm_pdf(self.grid, m0, v0)
            remaining = self.substeps - 1
        else:
            remaining = self.substeps
        for _ in range(remaining):
            dens = self.kernel @ (self.quad_w * dens)
        return dens

    def run(self, ys, log_g):
        """Filter means and variances after each observation in ys."""
        means = np.empty(len(ys))
        variances = np.empty(len(ys))
        dens = None
        for k, y in enumerate(ys):
            dens = self._predict(dens)
            dens = dens * np.exp(log_g(self.grid, y))
            mass = float(np.sum(self.quad_w * dens))
            dens = dens / mass
            mu = float(np.sum(self.quad_w * self.grid * dens))
            means[k] = mu
            variances[k] = float(np.sum(self.quad_w * (self.grid - mu) ** 2 * dens))
        return means, variances


def euler_grid_filter(drift, diff, level, x0, ys, log_g, lo=-8.0, hi=8.0,
                      points=1601):
    """Quadrature filter targeting the level-`level` Euler discretization."""
    dt = 2.0 ** (-level)
    gf = GridFilter(
        mean_fn=lambda z: z + drift(z) * dt,
        var_fn=lambda z: diff(z) ** 2 * dt,
        substeps=2 ** level,
        x0=x0,
        lo=lo,
        hi=hi,
        points=points,
    )
    return gf.run(ys, log_g)


class StubGen:
    """A fake numpy Generator handing out preset draws in order.

    standard_normal(shape) pops the next preset array (reshaped to `shape`);
    random(...) pops from a separate uniform queue, defaulting to 0.5 when
    the queue is empty. Like a Generator, both fill `out` when given it.
    Used to drive kernels through hand-computable paths.
    """

    def __init__(self, normals=(), uniforms=()):
        self.normals = [np.asarray(a, dtype=float) for a in normals]
        self.uniforms = [np.asarray(a, dtype=float) for a in uniforms]

    def standard_normal(self, shape=None, out=None):
        if not self.normals:
            raise AssertionError("stub generator ran out of normal draws")
        a = self.normals.pop(0)
        if shape is None:
            return float(a)
        return _filled(out, a.reshape(shape))

    def random(self, size=None, out=None):
        if self.uniforms:
            a = self.uniforms.pop(0)
        else:
            a = np.asarray(0.5)
        if size is None:
            return float(a)
        return _filled(out, np.broadcast_to(a, size if np.ndim(size) == 0 else tuple(size)))


def _filled(out, a):
    """A copy of a, written into out when it is given."""
    if out is None:
        return a.copy()
    out[...] = a
    return out


def maximal_coupling_row(wf, wc, u):
    """One row of the maximal coupling of Jasra, Kamatani, Law & Zhou (2017)
    by plain CDF searches: index pairs from uniforms u, (4, size), where
    u[0] picks the shared branch, u[1] the shared index and u[2], u[3] the
    residual indices. Returns (idx_f, idx_c, alpha, matched_fraction).
    A residual mass below 1e-14 forces every pair onto the shared branch.
    """
    def search(w, v):
        cum = np.cumsum(w)
        cum[-1] = 1.0
        return cum.searchsorted(v, side="right")

    m = np.minimum(wf, wc)
    alpha = float(m.sum())
    if 1.0 - alpha < 1e-14:
        j = search(m / alpha, u[1])
        return j, j, alpha, 1.0
    if alpha <= 0.0:
        return search(wf, u[2]), search(wc, u[3]), 0.0, 0.0
    matched = u[0] < alpha
    shared = search(m / alpha, u[1])
    idx_f = np.where(matched, shared, search((wf - m) / (1.0 - alpha), u[2]))
    idx_c = np.where(matched, shared, search((wc - m) / (1.0 - alpha), u[3]))
    return idx_f, idx_c, alpha, float(matched.mean())
