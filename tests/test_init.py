"""The package's top-level public surface."""

import importlib
import importlib.util
from pathlib import Path

import unbiasedpf


def test_all_has_no_duplicates():
    assert len(unbiasedpf.__all__) == len(set(unbiasedpf.__all__))


def test_every_exported_name_resolves():
    missing = [name for name in unbiasedpf.__all__ if not hasattr(unbiasedpf, name)]
    assert missing == []


def test_benchmark_tracer_targets_resolve():
    # the benchmark's tracer wraps package functions by module and name;
    # a rename here would otherwise only break traced benchmark runs
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for span, module, attr_path, _ in tracer.TARGETS:
        obj = importlib.import_module("unbiasedpf." + module)
        for attr in attr_path.split("."):
            obj = getattr(obj, attr, None)
        if not (callable(obj) or isinstance(obj, property)):
            missing.append(span)
    assert missing == []
