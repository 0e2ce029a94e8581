"""Self time, layer attribution and the tracing shims."""

import pytest

from perfbench import tracing
from perfbench.tracing import Span


def span(id, start, end, parent=None, layer="l", name="s"):
    return Span(id, name, layer, start, end, parent=parent)


def test_covered_merges_overlapping_and_clips_to_the_parent():
    assert tracing.covered(0, 10, []) == 0
    assert tracing.covered(0, 10, [(1, 3), (2, 5)]) == 4
    assert tracing.covered(0, 10, [(1, 3), (5, 6)]) == 3
    assert tracing.covered(0, 10, [(-2, 1), (9, 12)]) == 2
    assert tracing.covered(0, 10, [(2, 8), (3, 4)]) == 6


def test_self_time_with_nested_and_overlapping_children():
    spans = [
        span(0, 0.0, 10.0, layer="bench"),
        span(1, 1.0, 4.0, parent=0, layer="a"),
        span(2, 2.0, 3.0, parent=1, layer="b"),
        span(3, 3.0, 6.0, parent=0, layer="b"),  # overlaps span 1
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(5.0)  # 10 - union [1, 6]
    assert selfs[1] == pytest.approx(2.0)  # 3 - grandchild's 1
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(3.0)
    layers = tracing.layer_self_times(spans)
    assert layers == pytest.approx({"bench": 5.0, "a": 2.0, "b": 4.0})


def test_tracer_records_parents_and_context():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    tracer.context = "policy-0"
    outer = tracer.open("policy", "bench")
    inner = tracer.open("build_ctmdp", "build")
    tracer.close(inner)
    tracer.close(outer)
    assert inner.parent == outer.id
    assert inner.context == "policy-0"
    assert (outer.duration, inner.duration) == (3.0, 1.0)
    with pytest.raises(RuntimeError):
        a = tracer.open("a", "x")
        tracer.open("b", "x")
        tracer.close(a)


def test_shims_trace_layer_calls_and_are_removed():
    from repro.dpm import optimizer, presets
    from repro.dpm.system import PowerManagedSystemModel

    original_build = PowerManagedSystemModel.__dict__["build_ctmdp"]
    original_preset = presets.paper_system
    tracer = tracing.Tracer()
    shims = tracing.Instrumentation(tracer)
    shims.install()
    try:
        assert presets.paper_system is not original_preset
        model = presets.paper_system(capacity=3)
        optimizer.optimize_weighted(model, 1.0)
    finally:
        shims.remove()
    assert presets.paper_system is original_preset
    assert PowerManagedSystemModel.__dict__["build_ctmdp"] is original_build
    names = [s.name for s in tracer.spans]
    assert names.count("paper_system") == 1
    assert "PowerManagedSystemModel.build_ctmdp" in names
    assert "policy_iteration" in names
    assert "evaluate_dpm_policy" in names
    metrics = tracing.layer_metrics(tracer, n_policies=1)
    assert metrics["solve.calls"] == (1, "count")
    assert metrics["solve.iterations"][0] >= 1
    assert metrics["solve.useful_ratio"] == (1.0, "ratio")
    assert metrics["build.calls_per_policy"][0] >= 1


def test_matvec_bytes_counts_each_axis_application():
    from repro.ctmdp.kron import kron_farm_model

    generator = kron_farm_model(2, 2).generators[0]  # 9 states, 2 terms
    # 1 initial n-vector, then per term 4n for its one factor plus 5n.
    assert tracing.matvec_bytes(generator) == 8 * 9 * (1 + 2 * 9)
