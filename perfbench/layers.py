"""Per-layer metrics of the traced run."""

from __future__ import annotations

from collections import Counter
from typing import Dict, Mapping, Tuple

import numpy as np

from loads import Rung, percentile
from repro.obs import RingBufferSink, Tracer
from repro.sim.scheduler import simulate
from repro.traces.model import Trace
from spans import layer_totals

CALL_LAYERS = ("scheduler", "policies", "pool", "container")
SELF_TIME_LAYERS = ("columnar", "scheduler", "policies", "pool", "container", "metrics")
#: Measured by the live client; the offline workloads have no server.
SERVING_METRICS = (
    "server.max_rps",
    "server.rtt_p50_ms",
    "server.rtt_p99_ms",
    "server.overhead_p50_us",
    "service.decision_p50_us",
    "service.decision_p99_us",
    "client.late_p99_ms",
)


def span_metrics(spans: Mapping[str, np.ndarray]) -> Dict[str, float]:
    """Calls and self time per invocation from one traced replay."""
    invocations = int(spans["invocations"])
    totals = layer_totals(spans)
    metrics = {}
    for layer in CALL_LAYERS:
        calls = totals.get(layer, {}).get("calls", 0.0)
        metrics[f"{layer}.calls_per_inv"] = calls / invocations
    for layer in SELF_TIME_LAYERS:
        self_ns = totals.get(layer, {}).get("self_ns", 0.0)
        metrics[f"{layer}.self_us_per_inv"] = self_ns / 1e3 / invocations
    return metrics


def event_replay(trace: Trace, policy: str, memory_mb: float) -> Tuple[Dict[str, int], Dict[str, float]]:
    """Replay ``trace`` on the object engine with ``repro.obs`` tracing
    on; return its counters and the ratios read from the events."""
    sink = RingBufferSink(capacity=len(trace) * 8 + 1024)
    result = simulate(trace, policy, memory_mb, tracer=Tracer(sink))
    if sink.dropped:
        raise RuntimeError(f"event buffer dropped {sink.dropped} events")
    return result.metrics.counters(), event_ratios(sink)


def event_ratios(events) -> Dict[str, float]:
    """``pool.refault_frac``: pressure evictions whose function's next
    arrival was a cold start, over pressure evictions.
    ``policies.prewarm_useful_frac``: prewarmed containers that served
    a warm start, over prewarmed containers."""
    pending: Counter = Counter()  # evictions awaiting the function's next arrival
    evictions = refaults = 0
    prewarmed = set()
    useful = set()
    for event in events:
        kind = event["event"]
        if kind == "evicted" and event["reason"] == "pressure":
            evictions += 1
            pending[event["function"]] += 1
        elif kind in ("warm_hit", "cold_start"):
            waiting = pending.pop(event["function"], 0)
            if kind == "cold_start":
                refaults += waiting
            elif event["container_id"] in prewarmed:
                useful.add(event["container_id"])
        elif kind == "container_spawned" and event["prewarmed"]:
            prewarmed.add(event["container_id"])
    return {
        "pool.refault_frac": refaults / evictions if evictions else 0.0,
        "policies.prewarm_useful_frac": len(useful) / len(prewarmed) if prewarmed else 0.0,
    }


def counter_ratios(counters: Mapping[str, int], invocations: int) -> Dict[str, float]:
    cold = counters["cold_starts"]
    return {
        "pool.evictions_per_cold": counters["evictions"] / cold if cold else 0.0,
        "pool.expirations_per_inv": counters["expirations"] / invocations,
    }


def serving_metrics(reference: Rung, max_rps: float) -> Dict[str, float]:
    """The live client's figures: the ladder's result; latency at the
    reference rate, from each request's due time; the decision time
    the server reported; what the path around the decision adds; and
    how late the sender ran."""
    served = [
        (rtt, decision)
        for rtt, decision in zip(reference.rtt_s, reference.decision_us)
        if decision == decision  # not nan: the request was answered
    ]
    rtt = sorted(reference.rtt_s)
    decisions = sorted(decision for __, decision in served)
    overhead = sorted(rtt_s * 1e6 - decision for rtt_s, decision in served)
    return {
        "server.max_rps": max_rps,
        "server.rtt_p50_ms": percentile(rtt, 50.0) * 1e3,
        "server.rtt_p99_ms": percentile(rtt, 99.0) * 1e3,
        "server.overhead_p50_us": percentile(overhead, 50.0),
        "service.decision_p50_us": percentile(decisions, 50.0),
        "service.decision_p99_us": percentile(decisions, 99.0),
        "client.late_p99_ms": percentile(sorted(reference.late_s), 99.0) * 1e3,
    }
