import numpy as np

import layers
from repro.sim.columnar import ColumnarReplayEngine
from repro.traces.synth import skewed_frequency_trace
from spans import SpanRecorder, layer_totals, self_times_ns


def test_self_time_subtracts_nested_and_sibling_children():
    # 0 [0, 100) has children 1 [10, 40) and 2 [50, 90);
    # 1 has child 3 [15, 25); 4 [100, 130) is a second root.
    parent = np.array([-1, 0, 0, 1, -1], dtype=np.int32)
    start = np.array([0, 10, 50, 15, 100], dtype=np.int64)
    end = np.array([100, 40, 90, 25, 130], dtype=np.int64)
    assert self_times_ns(parent, start, end).tolist() == [30, 20, 40, 10, 30]


def test_layer_totals_sum_self_time_and_calls_per_layer():
    spans = {
        "layers": np.array(["scheduler", "pool", "pool"]),
        "calls": np.array([1, 3, 2]),
        "name_id": np.array([0, 1, 2, 1], dtype=np.int32),
        "parent": np.array([-1, 0, 0, -1], dtype=np.int32),
        "start_ns": np.array([0, 10, 30, 200], dtype=np.int64),
        "end_ns": np.array([100, 20, 60, 205], dtype=np.int64),
    }
    totals = layer_totals(spans)
    assert totals["scheduler"] == {"calls": 1.0, "self_ns": 60.0}
    assert totals["pool"] == {"calls": 5.0, "self_ns": 45.0}


def _traced_replay(trace):
    recorder = SpanRecorder()
    recorder.install(("columnar", "scheduler", "policies", "pool", "container", "metrics"))
    try:
        counters = ColumnarReplayEngine("GD", 2048.0).run(trace).metrics.counters()
    finally:
        recorder.uninstall()
    return counters, recorder


def test_traced_replay_keeps_results_and_repeats_its_counts():
    trace = skewed_frequency_trace()
    plain = ColumnarReplayEngine("GD", 2048.0).run(trace).metrics.counters()
    first_counters, first = _traced_replay(trace)
    second_counters, second = _traced_replay(trace)
    assert first_counters == second_counters == plain
    assert first.invocations == second.invocations == len(trace)
    assert first.calls == second.calls
    first_metrics = layers.span_metrics(first.arrays())
    second_metrics = layers.span_metrics(second.arrays())
    for name in first_metrics:
        if name.endswith("calls_per_inv"):
            assert first_metrics[name] == second_metrics[name] > 0
    # Each span's parent opened before it and is still open around it.
    spans = first.arrays()
    parent = spans["parent"]
    inner = parent >= 0
    assert (parent[inner] < np.flatnonzero(inner)).all()
    assert (spans["start_ns"][parent[inner]] <= spans["start_ns"][inner]).all()
    assert (spans["end_ns"][parent[inner]] >= spans["end_ns"][inner]).all()


def test_uninstall_restores_every_method():
    from repro.core.pool import ContainerPool

    original = ContainerPool.__dict__["add"]
    recorder = SpanRecorder()
    recorder.install(("pool",))
    assert ContainerPool.__dict__["add"] is not original
    recorder.uninstall()
    assert ContainerPool.__dict__["add"] is original
