"""The one whole-number check behind every size, level and count argument."""

import math

import pytest

from unbiasedpf.errors import InvalidLevel, InvalidRate, whole_number
from unbiasedpf.mlpf import allocate
from unbiasedpf.pf import BatchSchedule, check_size_index
from unbiasedpf.randomization import (_check_draw_count, draw_xi, make_single_rand_plan,
                                      make_truncated_plan)
from unbiasedpf.rng import RngStream
from unbiasedpf.sde import Level


def test_whole_number_takes_whole_values_at_or_above_the_bound():
    assert whole_number(3, 0) == 3 and type(whole_number(3.0, 1)) is int
    assert whole_number(-2, -math.inf) == -2
    for value in (-1, 2.5, None, math.nan, math.inf, -math.inf, "3", "abc", [1]):
        assert whole_number(value, 0) is None


# each entry point's own exception and message; _VALID holds the values an
# entry point accepts: a level-only plan reads l_max=None as unbounded, and
# draw_xi takes any integer index
_ENTRY_POINTS = {
    "Level": (lambda v, ctx: Level(v), InvalidLevel, "level must be a non-negative integer"),
    "BatchSchedule": (lambda v, ctx: BatchSchedule(v), ValueError,
                      "base sample size must be a positive integer"),
    "check_size_index": (lambda v, ctx: check_size_index(v), InvalidRate,
                         "p must be a non-negative integer"),
    "make_truncated_plan": (lambda v, ctx: make_truncated_plan(v, 10), InvalidRate,
                            "l_max must be a non-negative integer"),
    "make_single_rand_plan": (lambda v, ctx: make_single_rand_plan(v, 10), InvalidRate,
                              "l_max must be a non-negative integer"),
    "draw_xi": (lambda v, ctx: draw_xi(make_truncated_plan(3, 10), *ctx, v, 0, RngStream(1)),
                InvalidRate, "the indices must be integers"),
    "_check_draw_count": (lambda v, ctx: _check_draw_count(v), InvalidRate,
                          "the number of draws must be a positive integer"),
    "allocate": (lambda v, ctx: allocate(v, "constant"), InvalidRate,
                 "max_level must be a non-negative integer"),
}
_BAD = [None, math.nan, math.inf, -math.inf, "abc", "2", 1.5, -1]
_VALID = {("make_single_rand_plan", None), ("draw_xi", -1)}


@pytest.mark.parametrize("entry,value", [
    (entry, value) for entry in sorted(_ENTRY_POINTS) for value in _BAD
    if (entry, value) not in _VALID
], ids=repr)
def test_entry_points_reject_what_is_not_a_whole_number(entry, value, ou, ou_data_n3):
    call, error, message = _ENTRY_POINTS[entry]
    with pytest.raises(error, match=message):
        call(value, (ou, ou_data_n3))
