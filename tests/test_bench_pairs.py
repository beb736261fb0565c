"""The verdicts of the paired-benchmark tool, on hand values."""

import importlib.util
from pathlib import Path


def _bench_pairs():
    path = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("_bench_pairs", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _side(q1, median, q3, lo, hi):
    return {"median": median, "q1": q1, "q3": q3, "min": lo, "max": hi}


def test_verdicts_follow_the_benchmark_rules():
    verdict = _bench_pairs().verdict
    none_failed = {"parent": 0, "change": 0}
    # a lower-is-better metric with a bound of 0.25 and a narrow parent
    narrow = _side(0.95, 1.0, 1.05, 0.9, 1.1)
    assert verdict(narrow, _side(0.7, 0.75, 0.8, 0.65, 0.85), 10, 10, -1, 0.25,
                   none_failed) == "gain"
    assert verdict(narrow, _side(0.7, 0.75, 0.8, 0.65, 0.85), 8, 10, -1, 0.25,
                   none_failed) == "within bound"
    assert verdict(narrow, _side(1.2, 1.3, 1.4, 1.1, 1.5), 0, 10, -1, 0.25,
                   none_failed) == "regression"
    assert verdict(narrow, _side(1.1, 1.2, 1.3, 1.0, 1.4), 1, 10, -1, 0.25,
                   none_failed) == "within bound"
    # a gain does not count when the change failed more operations
    assert verdict(narrow, _side(0.7, 0.75, 0.8, 0.65, 0.85), 10, 10, -1, 0.25,
                   {"parent": 0, "change": 1}) == "within bound"
    # a parent quartile range of 0.4 against a bound of 0.25 times 1.0 is
    # unresolved, unless every change run reads better than every parent run
    # (here by a median gap of 0.35, less than that range: no gain)
    wide = _side(0.8, 1.0, 1.2, 0.7, 1.3)
    assert verdict(wide, _side(0.9, 1.05, 1.2, 0.8, 1.3), 5, 10, -1, 0.25,
                   none_failed) == "unresolved"
    assert verdict(wide, _side(0.62, 0.65, 0.67, 0.6, 0.69), 10, 10, -1, 0.25,
                   none_failed) == "within bound"
    assert verdict(wide, _side(0.62, 0.65, 0.67, 0.6, 0.7), 9, 10, -1, 0.25,
                   none_failed) == "unresolved"
    # and the same for a higher-is-better metric
    assert verdict(wide, _side(1.33, 1.35, 1.38, 1.31, 1.4), 10, 10, 1, 0.25,
                   none_failed) == "within bound"
    assert verdict(wide, _side(1.33, 1.35, 1.38, 1.3, 1.4), 9, 10, 1, 0.25,
                   none_failed) == "unresolved"
