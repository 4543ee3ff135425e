"""The ``live_gd`` workload: ``repro-faascache serve --clock sim`` in its
own process, driven by this process over one connection.

The request stream is the ``gd_azure`` trace and shifted repeats of it;
each request carries its trace time as ``now_s``. A session first sends
the whole trace once, closed-loop: its outcomes must be the ``gd_azure``
replay's, and it warms the server up (the pool fills and the heap stops
growing), so it is not timed. At the end of a session the server's
``/stats`` counters must equal the outcomes the client saw, and both
must equal an offline replay of every request sent, in order, through
``ColumnarReplayEngine`` (what ``simulate(engine="columnar")`` runs).

End-to-end run: start the server several times for ``setup_s``, then
time the pipelined closed loop in fixed-size windows. Traced run: one
untraced session adds a pass at the reference rate and the rate
ladder; a second session runs the server with span tracing.
"""

from __future__ import annotations

import asyncio
import os
import statistics
import time
from collections import Counter
from typing import Dict, List, Optional, Tuple

import layers
import live
import loads
import spans
import speed
from repro.sim.columnar import ColumnarReplayEngine
from repro.traces.io import save_trace_json
from workloads import CONFIG, Tally, build_trace, counter_problems

SETUP_REPEATS = 5
#: Share of the measuring time spent in the timed closed loop.
CLOSED_SHARE = 0.9
#: Requests per timed closed-loop window.
CLOSED_CHUNK = 4000
MIN_CLOSED_CHUNKS = 5
#: Length of the traced run's pass at the reference rate.
REFERENCE_S = 4.0

POLICY, MEMORY_MB = CONFIG["live_gd"]


class Session:
    """One server, one connection to it, and every request sent."""

    def __init__(self, root: str, trace, registry: str, cpu: Optional[int], spans_out: Optional[str] = None) -> None:
        self.trace = trace
        self.server = live.ServerProcess(
            root,
            [
                "--trace", registry,
                "--policy", POLICY,
                "--memory-gb", repr(MEMORY_MB / 1024.0),
                "--port", "0",
                "--clock", "sim",
            ],
            spans_out,
            cpu,
        )
        self.stream = loads.RequestStream(trace)
        self.rungs: List[loads.Rung] = []
        self.conn: Optional[live.Connection] = None

    async def connect(self) -> None:
        self.conn = await live.connect(self.server.host, self.server.port)
        await self.closed(len(self.trace))  # the untimed first pass

    async def closed(self, count: int) -> float:
        """Send ``count`` more requests closed-loop; returns requests/s."""
        wall_s, rung = await live.closed_loop(self.conn, self.stream.take(count))
        self.rungs.append(rung)
        return count / wall_s

    async def open(self, rate: float, count: int) -> loads.Rung:
        rung = await live.open_loop(self.conn, self.stream.take(count), rate)
        self.rungs.append(rung)
        return rung

    async def max_rps(self) -> float:
        """Climb :func:`loads.ladder`; a rung holds if one of TRIES
        tries passes, so a stall of the shared host does not end the
        climb while a saturated server fails every try."""
        steps = loads.ladder()
        try:
            rate = next(steps)
            while True:
                held = False
                for __ in range(loads.TRIES):
                    rung = await self.open(rate, loads.rung_size(rate))
                    if rung.passed():
                        held = True
                        break
                rate = steps.send(held)
        except StopIteration as done:
            return done.value

    async def finish(self, tally: Tally, seed: int) -> None:
        """Close the connection and gate everything the session saw."""
        stats = await self.conn.get("/stats")
        self.conn.transport.close()
        seen = dict(Counter(o for rung in self.rungs for o in rung.outcomes))
        errors = sum(rung.errors for rung in self.rungs)
        problems = [f"{errors} requests failed"] if errors else []
        if stats["decisions"] != seen:
            problems.append(f"/stats decisions {stats['decisions']} != client outcomes {seen}")
        replay = ColumnarReplayEngine(POLICY, MEMORY_MB).run(self.stream.issued_columnar())
        oracle = replay.metrics.counters()
        if stats["counters"] != oracle:
            problems.append(f"/stats counters {stats['counters']} != offline replay {oracle}")
        first = Counter(self.first_pass_outcomes())
        problems += [
            f"first pass: {problem}"
            for problem in counter_problems(
                "live_gd",
                seed,
                {"warm_starts": first["warm"], "cold_starts": first["cold"], "dropped": first["dropped"]},
                len(self.trace),
            )
        ]
        tally.gate("live", problems, self.stream.issued)

    def first_pass_outcomes(self) -> List[str]:
        return self.rungs[0].outcomes

    def stop(self) -> None:
        self.server.stop()


def first_pass_metrics(trace, outcomes: List[str]) -> Dict[str, float]:
    """cold_start_pct and exec_time_increase_pct of the first pass, from
    the outcomes the client saw, summed in arrival order as the
    simulator sums them."""
    ideal = actual = 0.0
    for inv, outcome in zip(trace, outcomes):
        function = trace.functions[inv.function_name]
        if outcome == "warm":
            ideal += function.warm_time_s
            actual += function.warm_time_s
        elif outcome == "cold":
            ideal += function.warm_time_s
            actual += function.cold_time_s
    return {
        "cold_start_pct": 100.0 * outcomes.count("cold") / len(trace),
        "exec_time_increase_pct": 100.0 * (actual - ideal) / ideal,
    }


def _prepare(seed: int, out_dir: str):
    started = time.perf_counter()
    trace = build_trace("live_gd", seed)
    build_s = time.perf_counter() - started
    registry = os.path.join(out_dir, "live_gd-registry.json")
    save_trace_json(trace, registry)
    return trace, registry, build_s


def run(root: str, seed: int, seconds: float, tally: Tally, out_dir: str, cpu: Optional[int]) -> Dict[str, float]:
    trace, registry, __ = _prepare(seed, out_dir)
    setups = []
    for __ in range(SETUP_REPEATS - 1):
        probe = Session(root, trace, registry, cpu)
        setups.append(probe.server.setup_s)
        probe.stop()
    session = Session(root, trace, registry, cpu)
    setups.append(session.server.setup_s)

    async def drive() -> Tuple[List[float], List[float]]:
        await session.connect()
        rates: List[float] = []
        loop_rates: List[float] = []
        deadline = time.perf_counter() + CLOSED_SHARE * seconds
        while len(rates) < MIN_CLOSED_CHUNKS or time.perf_counter() < deadline:
            rates.append(await session.closed(CLOSED_CHUNK))
            # Time the loop on the client's CPU and on the server's.
            loop_rates.append(speed.loop_rate())
            loop_rates.append(speed.loop_rate_on(cpu))
        await session.finish(tally, seed)
        return rates, loop_rates

    try:
        rates, loop_rates = asyncio.run(drive())
        peak_rss_mb = session.server.peak_rss_mb()
    finally:
        session.stop()
    tally.notes.append(
        f"inv_per_s: median of {len(rates)} closed-loop windows of {CLOSED_CHUNK} requests, "
        f"{statistics.median(rates):.0f}/s of wall time at {statistics.median(loop_rates):.2f} "
        f"calibration loops/s, scaled to {speed.NOMINAL_LOOPS_PER_S}"
    )
    return {
        "inv_per_s": speed.normalized(rates, loop_rates),
        **first_pass_metrics(trace, session.first_pass_outcomes()),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setups),
    }


def run_traced(root: str, seed: int, tally: Tally, out_dir: str, spans_out: str, cpu: Optional[int]) -> Dict[str, float]:
    trace, registry, build_s = _prepare(seed, out_dir)

    untraced = Session(root, trace, registry, cpu)

    async def serve() -> tuple:
        await untraced.connect()
        rate = await untraced.closed(len(trace))
        reference = await untraced.open(loads.REFERENCE_RPS, int(loads.REFERENCE_RPS * REFERENCE_S))
        max_rps = await untraced.max_rps()
        await untraced.finish(tally, seed)
        return rate, reference, max_rps

    try:
        untraced_rate, reference, max_rps = asyncio.run(serve())
    finally:
        untraced.stop()

    traced = Session(root, trace, registry, cpu, spans_out)

    async def trace_pass() -> float:
        await traced.connect()
        rate = await traced.closed(len(trace))
        await traced.finish(tally, seed)
        return rate

    try:
        traced_rate = asyncio.run(trace_pass())
    finally:
        traced.stop()  # the server writes its spans as it exits

    metrics = layers.span_metrics(spans.load(spans_out))
    counters, ratios = layers.event_replay(trace, POLICY, MEMORY_MB)
    tally.gate("event replay", counter_problems("live_gd", seed, counters, len(trace)), len(trace))
    metrics.update(ratios)
    metrics.update(layers.counter_ratios(counters, len(trace)))
    metrics.update(layers.serving_metrics(reference, max_rps))
    metrics.update(
        {
            "traces.build_s": build_s,
            "columnar.vectorized_frac": 0.0,  # the server has no columnar path
            "tracing.overhead_frac": 1.0 - traced_rate / untraced_rate,
        }
    )
    tally.notes.append(
        f"server.rtt_*: {len(reference.rtt_s)} requests at {loads.REFERENCE_RPS:.0f}/s, "
        "each timed from its due send time"
    )
    return metrics
