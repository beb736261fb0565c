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


def _benchmark_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_tracer_targets_resolve():
    # the benchmark's tracer wraps package functions by module and name;
    # a rename here would otherwise only break traced benchmark runs
    tracer = _benchmark_tracer()
    missing = []
    for span, module, attr_path, _ in tracer.TARGETS:
        obj = importlib.import_module("unbiasedpf." + module)
        for attr in attr_path.split("."):
            obj = getattr(obj, attr, None)
        if not (callable(obj) or isinstance(obj, property)):
            missing.append(span)
    assert missing == []


def test_benchmark_tracer_sees_the_engine_layers(ou, ou_data_n3):
    # the per-layer metrics read these spans: the engine must keep calling
    # the wrapped functions by their module-global names
    tracer = _benchmark_tracer()
    t = tracer.Tracer()
    t.install()
    try:
        for scheme in unbiasedpf.cpf.SCHEMES:
            unbiasedpf.unbiased_estimate(unbiasedpf.make_truncated_plan(2, 4), ou, ou_data_n3,
                                         12, seed=1, scheme=scheme)
        unbiasedpf.mlpf_estimate(ou, ou_data_n3, unbiasedpf.allocate(2, "constant"), seed=1)
    finally:
        t.uninstall()
    summary = tracer.summarize(t.spans())
    names = ("sde.transition", "sde.coupled_transition", "pf.normalized_weights",
             "pf.multinomial_indices", "pf.pf_step", "cpf.cpf_step")
    assert {name: summary[name]["count"] > 0 for name in names} == dict.fromkeys(names, True)
