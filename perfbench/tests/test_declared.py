import json
import os

import pytest

import run

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        return json.load(spec_file)


def test_every_declared_metric_has_a_unit_and_a_unique_name():
    spec = _spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"]
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_result_line_prints_exactly_the_declared_metrics_with_units():
    for trace in (False, True):
        units = run.declared_units(trace, ROOT)
        line = json.loads(run.result_line(True, 10, 0, dict.fromkeys(units, 1.5), units))
        assert line["metrics"] == {n: {"value": 1.5, "unit": u} for n, u in units.items()}
        with pytest.raises(ValueError):
            run.result_line(True, 10, 0, {**dict.fromkeys(units, 1.5), "undeclared": 1.0}, units)
        with pytest.raises(ValueError):
            run.result_line(True, 10, 0, dict.fromkeys(list(units)[1:], 1.5), units)


def test_the_metrics_each_run_computes_are_the_declared_ones():
    import layers
    from loads import Rung

    per_layer = set(run.declared_units(True, ROOT))
    rung = Rung(1.0, rtt_s=[0.001], late_s=[0.0], decision_us=[10.0], outcomes=["warm"])
    serving = layers.serving_metrics(rung, 1.0)
    assert set(serving) == set(layers.SERVING_METRICS)
    computed = set(serving) | set(layers.event_ratios([]))
    computed |= set(layers.counter_ratios({"cold_starts": 1, "evictions": 0, "expirations": 0}, 1))
    computed |= {f"{layer}.calls_per_inv" for layer in layers.CALL_LAYERS}
    computed |= {f"{layer}.self_us_per_inv" for layer in layers.SELF_TIME_LAYERS}
    computed |= {"traces.build_s", "columnar.vectorized_frac", "tracing.overhead_frac"}
    assert computed == per_layer
