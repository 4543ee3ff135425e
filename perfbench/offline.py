"""The offline workloads: ``gd_azure`` and ``hist_churn``.

End-to-end run: set up several times, then replay the trace through
``ColumnarReplayEngine.run`` on a fresh engine again and again, after
one untimed warm-up replay. Every replay passes the correctness gate.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from typing import Dict, List, Tuple

import layers
import speed
from repro.sim.columnar import ColumnarReplayEngine
from repro.traces.columnar import ColumnarTrace
from spans import SpanRecorder
from workloads import CONFIG, Tally, build_trace, counter_problems

SETUP_REPEATS = 5
#: Share of the measuring time spent on timed replays.
REPLAY_SHARE = 0.9
MIN_REPLAYS = 3
#: Layers an offline replay passes through.
REPLAY_LAYERS = ("columnar", "scheduler", "policies", "pool", "container", "metrics")


class Offline:
    """A workload's trace, set up SETUP_REPEATS times, and its replays."""

    def __init__(self, workload: str, seed: int, tally: Tally) -> None:
        self.workload = workload
        self.seed = seed
        self.tally = tally
        self.policy, self.memory_mb = CONFIG[workload]
        self.setup_s: List[float] = []
        for __ in range(SETUP_REPEATS):
            started = time.perf_counter()
            self.trace = build_trace(workload, seed)
            built = time.perf_counter()
            self.columnar = ColumnarTrace.from_trace(self.trace)
            self.engine = ColumnarReplayEngine(self.policy, self.memory_mb)
            self.setup_s.append(time.perf_counter() - started)
            self.build_s = built - started

    def replay(self) -> float:
        """One gated replay; returns invocations per second. Each
        replay gets a fresh engine, made before the clock starts."""
        engine, self.engine = self.engine, ColumnarReplayEngine(self.policy, self.memory_mb)
        gc.collect()
        started = time.perf_counter()
        result = engine.run(self.columnar)
        elapsed = time.perf_counter() - started
        self.last_path = engine.last_path
        self.last_metrics = result.metrics
        self.tally.gate(
            "replay",
            counter_problems(self.workload, self.seed, result.metrics.counters(), len(self.columnar)),
            len(self.columnar),
        )
        return len(self.columnar) / elapsed

    def replays(self, budget_s: float) -> Tuple[List[float], List[float]]:
        """Timed replays after an untimed warm-up, each followed by a
        run of the calibration loop; returns both rates."""
        self.replay()  # warm-up, gated but not timed
        rates: List[float] = []
        loop_rates: List[float] = []
        deadline = time.perf_counter() + budget_s
        while len(rates) < MIN_REPLAYS or time.perf_counter() < deadline:
            rates.append(self.replay())
            loop_rates.append(speed.loop_rate())
        return rates, loop_rates


def run(workload: str, seed: int, seconds: float, tally: Tally) -> Dict[str, float]:
    offline = Offline(workload, seed, tally)
    rates, loop_rates = offline.replays(REPLAY_SHARE * seconds)
    tally.notes.append(
        f"inv_per_s: median of {len(rates)} replays of {len(offline.columnar)} invocations, "
        f"{statistics.median(rates):.0f}/s of wall time at {statistics.median(loop_rates):.2f} "
        f"calibration loops/s, scaled to {speed.NOMINAL_LOOPS_PER_S}"
    )
    return {
        "inv_per_s": speed.normalized(rates, loop_rates),
        "cold_start_pct": offline.last_metrics.cold_start_pct,
        "exec_time_increase_pct": offline.last_metrics.exec_time_increase_pct,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(offline.setup_s),
    }


def run_traced(workload: str, seed: int, tally: Tally, spans_out: str) -> Dict[str, float]:
    offline = Offline(workload, seed, tally)
    untraced = statistics.median(offline.replays(0.0)[0])

    recorder = SpanRecorder()
    recorder.install(REPLAY_LAYERS)
    try:
        traced = offline.replay()
    finally:
        recorder.uninstall()
    recorder.save(spans_out)
    if recorder.invocations != len(offline.columnar):
        tally.gate("traced replay", [f"traced {recorder.invocations} invocations"], len(offline.columnar))
    metrics = layers.span_metrics(recorder.arrays())

    counters, ratios = layers.event_replay(offline.trace, offline.policy, offline.memory_mb)
    tally.gate(
        "event replay",
        counter_problems(workload, seed, counters, len(offline.trace)),
        len(offline.trace),
    )
    metrics.update(ratios)
    metrics.update(layers.counter_ratios(counters, len(offline.trace)))
    metrics.update(dict.fromkeys(layers.SERVING_METRICS, 0.0))  # no server here
    metrics.update(
        {
            "traces.build_s": offline.build_s,
            "columnar.vectorized_frac": 1.0 if offline.last_path == "vectorized-ttl" else 0.0,
            "tracing.overhead_frac": 1.0 - traced / untraced,
        }
    )
    return metrics
