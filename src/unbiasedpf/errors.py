"""Exception types shared across the package, and the whole-number check."""


def whole_number(value, least):
    """value as an int when it is a whole number of at least `least`, else
    None (also for None, NaN, infinities and strings)."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return n if n == value and n >= least else None


class FilterError(Exception):
    """Base class for every error this package raises deliberately."""


class InvalidLevel(FilterError):
    """An operation was asked to run at a discretization level it does not support."""


class UnknownModel(FilterError):
    """Benchmark model name not recognized."""


class ExactUnavailable(FilterError):
    """Exact transition sampling requested for a model that has none."""


class ModelMismatch(FilterError):
    """A reference solver was applied to a model outside its assumptions."""


class _Located(FilterError):
    """An error of a filter run that carries enough context (level,
    sample-size index, time step) to locate the failing replicate in a
    randomized run."""

    def __init__(self, message, level=None, p=None, time_index=None):
        parts = [message]
        ctx = []
        if level is not None:
            ctx.append(f"l={level}")
        if p is not None:
            ctx.append(f"p={p}")
        if time_index is not None:
            ctx.append(f"k={time_index}")
        if ctx:
            parts.append("(" + ", ".join(ctx) + ")")
        super().__init__(" ".join(parts))
        self.level = level
        self.p = p
        self.time_index = time_index


class NumericalOverflow(_Located):
    """A simulated state left the representable range (non-finite values)."""


class DegenerateWeights(_Located):
    """Every particle weight underflowed to zero, so no filter update exists."""


class InvalidSimplex(FilterError):
    """A weight vector was not a probability vector (negative or not summing to 1)."""


class UnsupportedDimension(FilterError):
    """The requested operation is only implemented for scalar (d=1) states."""


class InvalidRate(FilterError):
    """A rate or size parameter is outside its admissible range."""


class NonOverlappingRange(FilterError):
    """Two cost/MSE curves share no common cost range, so no ratio exists."""


class CostBudgetExceeded(FilterError):
    """A sampled draw would exceed the configured per-draw cost budget."""


class ConfigError(FilterError):
    """An experiment configuration is incomplete or inconsistent."""
