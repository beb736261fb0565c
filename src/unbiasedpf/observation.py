"""Observation densities, benchmark models, data generation and references,
and the CSV and JSON formats of every artifact the command line reads or
writes.

Observations y_1, y_2, ... arrive at unit times. The convention throughout
is that y_{k+1} is emitted by the skeleton state X_k, i.e. the first
observation already sees one unit-time transition away from the fixed
starting point x*. Filtering "at observation count m" therefore means the
law of X_{m-1} given y_1..y_m.

Four scalar benchmark models are built in: an Ornstein-Uhlenbeck process
(with a Gaussian observation channel and an exact Kalman reference), a
Langevin diffusion whose invariant law is a Student-t, a geometric Brownian
motion observed through a guarded log link, and a nonlinear diffusion with
state-dependent volatility observed through Laplace noise. The first two
have constant diffusion coefficient, the last two do not, which is what the
randomized estimators key their rates on.
"""

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ExactUnavailable, ModelMismatch, UnknownModel
from .rng import ROLE_DATA, RngStream
from .sde import DiffusionModel, Level, transition

_FAMILIES = ("gaussian", "laplace")
_LINKS = ("identity", "log", "log_abs_eps", "log_var")


def _state_coord(x):
    """First coordinate of state(s): (N, d) -> (N,), (d,) -> scalar."""
    x = np.asarray(x, dtype=float)
    return x[..., 0] if x.ndim else x


@dataclass(frozen=True)
class ObservationModel:
    """A one-observation-per-unit-time likelihood g(x, y).

    Parameters
    ----------
    family : str
        "gaussian" or "laplace".
    link : str
        How the state enters the density. "identity", "log" and
        "log_abs_eps" set the location to x, log(x) and log(max(|x|, eps))
        respectively. "log_var" (gaussian only) sets the location to zero
        and the variance to exp(x).
    scale : float
        Observation variance for the gaussian family, scale parameter for
        the laplace family. Ignored by "log_var".
    eps : float
        Floor used by the guarded log link.
    """

    family: str
    link: str = "identity"
    scale: float = 1.0
    eps: float = 1e-12

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown observation family {self.family!r}")
        if self.link not in _LINKS:
            raise ValueError(f"unknown observation link {self.link!r}")
        if self.link == "log_var" and self.family != "gaussian":
            raise ValueError("the log_var link is only defined for gaussian noise")
        if self.link != "log_var" and self.scale <= 0:
            raise ValueError("observation scale must be positive")

    def location(self, x):
        """Density location as a function of the state (None for log_var)."""
        s = _state_coord(x)
        if self.link == "identity":
            return s
        if self.link == "log":
            with np.errstate(invalid="ignore", divide="ignore"):
                return np.log(s)
        if self.link == "log_abs_eps":
            return np.log(np.maximum(np.abs(s), self.eps))
        return None

    def log_g(self, x, y):
        """Log observation density log g(x, y), vectorized over states."""
        if self.link == "log_var":
            s = _state_coord(x)
            return -0.5 * (math.log(2.0 * math.pi) + s + y * y * np.exp(-s))
        m = self.location(x)
        if self.family == "gaussian":
            var = self.scale
            return -0.5 * (math.log(2.0 * math.pi * var) + (y - m) ** 2 / var)
        return -math.log(2.0 * self.scale) - np.abs(y - m) / self.scale

    def sample(self, x, gen):
        """Draw one observation per state; returns shape (N,) for (N, d) input."""
        if self.link == "log_var":
            s = _state_coord(x)
            return np.exp(0.5 * s) * gen.standard_normal(np.shape(s))
        m = self.location(x)
        if self.family == "gaussian":
            return m + math.sqrt(self.scale) * gen.standard_normal(np.shape(m))
        return gen.laplace(m, self.scale, size=np.shape(m))


@dataclass
class DataSet:
    """An observation record y_1..y_n plus how it was generated.

    y[k] holds y_{k+1} (python indexing is zero-based, observation labels
    are one-based). `level` is the generation level, or the string "exact"
    when the latent path was sampled from the true transition law.
    """

    y: np.ndarray
    model: str = ""
    level: object = "exact"
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float).reshape(-1)

    @property
    def n(self):
        return self.y.shape[0]

    def observations(self):
        """Yield (k, y_k) pairs with k = 1..n."""
        for i, yi in enumerate(self.y):
            yield i + 1, float(yi)


@dataclass(frozen=True)
class BenchmarkModel:
    """A diffusion, its observation channel, and the test functional phi."""

    name: str
    diffusion: DiffusionModel
    observation: ObservationModel
    phi: object
    params: dict = field(default_factory=dict)


def _phi_coordinate(x):
    """The default test functional phi(x) = x (first coordinate)."""
    return _state_coord(x)


def _ou_drift(x):
    return -np.asarray(x, dtype=float)


def _unit_matrix_diffusion(x):
    shape = np.shape(x)[:-1] + (1, 1) if np.ndim(x) else (1, 1)
    return np.ones(shape)


def _langevin_drift(x, nu=10.0):
    x = np.asarray(x, dtype=float)
    return -(nu + 1.0) * x / (2.0 * (nu + x * x))


def _gbm_drift(x, mu=0.02):
    return mu * np.asarray(x, dtype=float)


def _gbm_diffusion(x, sigma=0.2):
    x = np.asarray(x, dtype=float)
    return (sigma * x)[..., None]


def _nld_drift(x):
    return -np.asarray(x, dtype=float)


def _nld_diffusion(x):
    x = np.asarray(x, dtype=float)
    return (1.0 / np.sqrt(1.0 + x * x))[..., None]


def make_benchmark(name):
    """Build one of the named benchmark models.

    Parameters
    ----------
    name : str
        "OU", "Langevin", "GBM" or "NLD" (case-insensitive).

    Returns
    -------
    BenchmarkModel
    """
    key = str(name).strip().lower()
    if key == "ou":
        dyn = DiffusionModel(
            dim=1,
            drift=_ou_drift,
            diffusion=_unit_matrix_diffusion,
            initial_state=np.zeros(1),
            constant_diffusion=True,
            name="OU",
        )
        obs = ObservationModel("gaussian", "identity", scale=0.2)
        params = {"theta": 1.0, "mu": 0.0, "tau2": 0.2}
        return BenchmarkModel("OU", dyn, obs, _phi_coordinate, params)
    if key == "langevin":
        dyn = DiffusionModel(
            dim=1,
            drift=_langevin_drift,
            diffusion=_unit_matrix_diffusion,
            initial_state=np.zeros(1),
            constant_diffusion=True,
            name="Langevin",
        )
        obs = ObservationModel("gaussian", "log_var")
        params = {"nu": 10.0}
        return BenchmarkModel("Langevin", dyn, obs, _phi_coordinate, params)
    if key == "gbm":
        dyn = DiffusionModel(
            dim=1,
            drift=_gbm_drift,
            diffusion=_gbm_diffusion,
            initial_state=np.ones(1),
            constant_diffusion=False,
            name="GBM",
        )
        obs = ObservationModel("gaussian", "log_abs_eps", scale=0.01)
        params = {"mu": 0.02, "sigma": 0.2, "tau2": 0.01}
        return BenchmarkModel("GBM", dyn, obs, _phi_coordinate, params)
    if key == "nld":
        dyn = DiffusionModel(
            dim=1,
            drift=_nld_drift,
            diffusion=_nld_diffusion,
            initial_state=np.zeros(1),
            constant_diffusion=False,
            name="NLD",
        )
        obs = ObservationModel("laplace", "identity", scale=math.sqrt(0.1))
        params = {"theta": 1.0, "mu": 0.0, "s": math.sqrt(0.1)}
        return BenchmarkModel("NLD", dyn, obs, _phi_coordinate, params)
    raise UnknownModel(f"no benchmark model named {name!r}")


def exact_unit_transition(bm, x, gen):
    """Sample the exact unit-time transition where one is known.

    Available for OU (Gaussian conditional law) and GBM (lognormal
    conditional law). Raises ExactUnavailable for the other models.
    """
    x = np.asarray(x, dtype=float)
    if bm.name == "OU":
        theta = bm.params["theta"]
        mu = bm.params["mu"]
        f = math.exp(-theta)
        sd = math.sqrt((1.0 - math.exp(-2.0 * theta)) / (2.0 * theta))
        return mu + (x - mu) * f + sd * gen.standard_normal(x.shape)
    if bm.name == "GBM":
        mu = bm.params["mu"]
        sigma = bm.params["sigma"]
        drift = mu - 0.5 * sigma * sigma
        return x * np.exp(drift + sigma * gen.standard_normal(x.shape))
    raise ExactUnavailable(f"no exact transition sampler for model {bm.name!r}")


def generate_data(bm, n, level="exact", seed=0):
    """Simulate a latent skeleton and n unit-time observations.

    The skeleton X_0..X_{n-1} starts one transition away from the model's
    fixed initial point, and y_{k+1} is drawn from the observation density
    at X_k. With level="exact" the true transition law is used (OU and GBM
    only); an integer level runs the Euler kernel at that level instead.

    Parameters
    ----------
    bm : BenchmarkModel
    n : int
        Number of observations.
    level : "exact" or int
    seed : int
        Experiment seed; the data stream is derived from it.

    Returns
    -------
    DataSet
    """
    if n < 1:
        raise ValueError("need at least one observation")
    gen = RngStream(seed, (ROLE_DATA,)).gen
    exact = level == "exact"
    lv = None if exact else Level(int(level))
    x = np.array(bm.diffusion.initial_state, dtype=float).reshape(1, -1)
    ys = np.empty(n)
    for k in range(n):
        if exact:
            x = exact_unit_transition(bm, x, gen)
        else:
            x = transition(bm.diffusion, x, lv, gen)
        ys[k] = bm.observation.sample(x, gen)[0]
    return DataSet(
        y=ys,
        model=bm.name,
        level="exact" if exact else lv.l,
        seed=seed,
        params=dict(bm.params),
    )


def kalman_reference(bm, data):
    """Exact filter moments for the OU benchmark via the Kalman recursion.

    Returns an (n, 2) array whose row k holds the mean and variance of
    X_k given y_1..y_{k+1}, i.e. the filter after assimilating the (k+1)-th
    observation. Only valid for linear-Gaussian dynamics with an identity
    observation link; anything else raises ModelMismatch.
    """
    if bm.name != "OU":
        raise ModelMismatch("the Kalman reference only covers the OU benchmark")
    obs = bm.observation
    if obs.family != "gaussian" or obs.link != "identity":
        raise ModelMismatch("the Kalman reference needs gaussian identity observations")
    if data.model and data.model != bm.name:
        raise ModelMismatch(
            f"data was generated for model {data.model!r}, not {bm.name!r}"
        )
    theta = bm.params["theta"]
    mu = bm.params["mu"]
    tau2 = obs.scale
    f = math.exp(-theta)
    q = (1.0 - math.exp(-2.0 * theta)) / (2.0 * theta)
    x0 = float(np.asarray(bm.diffusion.initial_state).reshape(-1)[0])

    out = np.empty((data.n, 2))
    m_pred = mu + f * (x0 - mu)
    p_pred = q
    for k, yk in enumerate(data.y):
        gain = p_pred / (p_pred + tau2)
        m = m_pred + gain * (yk - m_pred)
        p = (1.0 - gain) * p_pred
        out[k, 0] = m
        out[k, 1] = p
        m_pred = mu + f * (m - mu)
        p_pred = f * f * p + q
    return out


def _write_csv(path, header, rows):
    """Write header and rows as CSV, floats by repr so they read back bit for bit."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _write_meta(path, payload):
    """Write payload as strict JSON. It is serialised before the file is
    opened, so a NaN or infinity raises ValueError and leaves no file; pass
    such values through cli._finite_or_none, which writes them as null."""
    text = json.dumps(payload, indent=2, sort_keys=True, default=str, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _read_csv(path, what, columns):
    """The rows of a CSV file as dicts, the cells of `columns` as floats;
    ValueError naming the file when its header lacks one of `columns`, and
    the line when one of their cells is not a number (or is missing)."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh, restval="")
        for col in columns:
            if col not in (reader.fieldnames or ()):
                raise ValueError(f"{what} {path} has no {col!r} column")
        try:
            return [{**row, **{col: float(row[col]) for col in columns}} for row in reader]
        except ValueError as err:
            raise ValueError(f"{what} {path}, line {reader.line_num}: {err}") from None


def _read_json(path, what):
    """The JSON object in a file; ValueError naming the file when its text
    is not JSON or does not hold an object."""
    with open(path) as fh:
        try:
            value = json.load(fh)
        except ValueError as err:
            raise ValueError(f"{what} {path}: {err}") from None
    if not isinstance(value, dict):
        raise ValueError(f"{what} {path} does not hold a JSON object")
    return value


def _sidecar_path(path):
    base, _ = os.path.splitext(str(path))
    return base + ".meta.json"


def write_dataset(data, path):
    """Write observations as CSV (header k,y) plus a JSON metadata sidecar."""
    _write_csv(path, ["k", "y"], data.observations())
    meta = {"model": data.model, "level": data.level, "seed": data.seed, "params": data.params}
    _write_meta(_sidecar_path(path), meta)


def read_dataset(path):
    """Read a dataset written by write_dataset (sidecar optional).

    Raises ValueError naming the path when the file has no y column, a row
    without a number in it, or no observations, or when the sidecar is not
    a JSON object.
    """
    ys = [row["y"] for row in _read_csv(path, "dataset", ["y"])]
    if not ys:
        raise ValueError(f"dataset {path} has no observations")
    sidecar = _sidecar_path(path)
    meta = _read_json(sidecar, "dataset side file") if os.path.exists(sidecar) else {}
    # a field the sidecar lacks keeps DataSet's default
    return DataSet(ys, **{k: meta[k] for k in ("model", "level", "seed", "params") if k in meta})
