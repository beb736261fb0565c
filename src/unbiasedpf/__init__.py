"""Unbiased and bias-controlled filtering for partially observed diffusions.

The filtering distribution of a diffusion observed at unit times is
approximated by particle filters run at dyadic Euler discretization levels.
Randomizing over the level (and over a doubling sequence of sample sizes)
and reweighting by the sampling probabilities removes the discretization
and particle biases in expectation; truncating the randomization keeps the
bias explicitly controlled at finite expected cost. A multilevel particle
filter is included as the fixed-bias baseline.

The top level exports what callers use; the exception classes live in
unbiasedpf.errors.
"""

from .costs import cost_of_draw, single_rand_draw_cost
from .cpf import (
    batch_cpf_run,
    maximal_coupling_resample,
    wasserstein_resample,
)
from .mlpf import allocate, mlpf_cost, mlpf_estimate
from .observation import (
    DataSet,
    ObservationModel,
    exact_unit_transition,
    generate_data,
    kalman_reference,
    make_benchmark,
    read_dataset,
    write_dataset,
)
from .pf import (
    BatchSchedule,
    batch_pf_run,
    multinomial_indices,
    normalized_weights,
)
from .randomization import (
    Pmf,
    default_base_size,
    draw_xi,
    expected_draw_cost,
    make_single_rand_plan,
    make_theory_plan,
    make_truncated_plan,
    randomized_table_mean,
    unbiased_estimate,
)
from .rng import RngStream
from .sde import (
    CostCounter,
    Level,
    coupled_transition,
    euler_step,
    transition,
)

__version__ = "0.1.0"

__all__ = [
    "BatchSchedule",
    "CostCounter",
    "DataSet",
    "Level",
    "ObservationModel",
    "Pmf",
    "RngStream",
    "allocate",
    "batch_cpf_run",
    "batch_pf_run",
    "cost_of_draw",
    "coupled_transition",
    "default_base_size",
    "draw_xi",
    "euler_step",
    "exact_unit_transition",
    "expected_draw_cost",
    "generate_data",
    "kalman_reference",
    "make_benchmark",
    "make_single_rand_plan",
    "make_theory_plan",
    "make_truncated_plan",
    "maximal_coupling_resample",
    "mlpf_cost",
    "mlpf_estimate",
    "multinomial_indices",
    "normalized_weights",
    "randomized_table_mean",
    "read_dataset",
    "single_rand_draw_cost",
    "transition",
    "unbiased_estimate",
    "wasserstein_resample",
    "write_dataset",
]
