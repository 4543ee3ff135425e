"""Loopback HTTP smoke tests: the asyncio frontend, the load
generator, and the trace/stats counter-consistency contract."""

from __future__ import annotations

import http.client
import json

import pytest

from repro.checks.sanitize import ReportSink
from repro.core.clock import SimClock
from repro.live.loadgen import fetch_stats, run_loadgen
from repro.live.server import ServerThread
from repro.live.service import LivePoolService
from repro.obs.tracer import Tracer
from repro.sim.scheduler import simulate
from repro.traces.synth import skewed_frequency_trace

MEMORY_MB = 2048.0


@pytest.fixture()
def live_server():
    """A sim-clock service with a ReportSink tracer behind the asyncio
    frontend on an ephemeral loopback port."""
    trace = skewed_frequency_trace(seed=21)
    sink = ReportSink()
    service = LivePoolService(
        trace, "GD", MEMORY_MB, clock=SimClock(), tracer=Tracer(sink)
    )
    thread = ServerThread(service).start()
    try:
        yield trace, service, sink, thread
    finally:
        thread.stop()


def _request(thread, method, path, body=None):
    conn = http.client.HTTPConnection(thread.host, thread.port, timeout=10)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        conn.request(method, path, body=payload)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        conn.close()


class TestEndpoints:
    def test_healthz(self, live_server):
        __, __, __, thread = live_server
        status, payload = _request(thread, "GET", "/healthz")
        assert (status, payload) == (200, {"ok": True})

    def test_admit_and_stats(self, live_server):
        trace, __, __, thread = live_server
        name = next(iter(trace.functions))
        status, payload = _request(
            thread, "POST", "/admit", {"function": name, "now_s": 1.0}
        )
        assert status == 200
        assert payload["outcome"] == "cold"
        assert payload["now_s"] == 1.0
        assert payload["decision_us"] > 0.0
        status, stats = _request(thread, "GET", "/stats")
        assert status == 200
        assert stats["decisions"] == {"cold": 1}
        assert stats["counters"]["cold_starts"] == 1
        assert stats["http"]["errors_5xx"] == 0

    def test_release_endpoint(self, live_server):
        trace, __, __, thread = live_server
        name = next(iter(trace.functions))
        _request(thread, "POST", "/admit", {"function": name, "now_s": 1.0})
        status, payload = _request(
            thread, "POST", "/release", {"now_s": 10_000.0}
        )
        assert (status, payload) == (200, {"released": 1})

    def test_unknown_function_is_404(self, live_server):
        __, __, __, thread = live_server
        status, payload = _request(
            thread, "POST", "/admit", {"function": "nope"}
        )
        assert status == 404
        assert "unknown function" in payload["error"]

    def test_bad_json_is_400(self, live_server):
        __, __, __, thread = live_server
        conn = http.client.HTTPConnection(
            thread.host, thread.port, timeout=10
        )
        try:
            conn.request("POST", "/admit", body=b"{not json")
            assert conn.getresponse().status == 400
        finally:
            conn.close()

    def test_missing_function_field_is_400(self, live_server):
        __, __, __, thread = live_server
        status, __ = _request(thread, "POST", "/admit", {"now_s": 1.0})
        assert status == 400

    def test_unknown_route_is_404_and_wrong_method_405(self, live_server):
        __, __, __, thread = live_server
        assert _request(thread, "GET", "/nope")[0] == 404
        assert _request(thread, "GET", "/admit")[0] == 405
        assert _request(thread, "POST", "/stats")[0] == 405


class TestLoopbackSmoke:
    """serve + loadgen in-process: the sim/live/tracer triangle."""

    def test_pipeline_replay_matches_sim_and_tracer(self, live_server):
        trace, service, sink, thread = live_server
        report = run_loadgen(
            trace, thread.host, thread.port, mode="pipeline", limit=4000
        )
        # Zero 5xx, every request answered.
        assert report.errors_5xx == 0
        assert report.completed == report.sent == 4000
        assert report.statuses == {200: 4000}
        assert report.achieved_qps > 0.0
        assert report.decision_latency.count == 4000

        # /stats counters == the service's own == the tracer's rebuilt
        # counters (the repro.obs consistency contract, live).
        stats = fetch_stats(thread.host, thread.port)
        assert stats["decisions"] == report.outcomes
        assert stats["counters"] == service.counters()
        assert sink.report.check_counters(stats["counters"]) == []

    def test_live_http_equals_offline_replay(self):
        trace = skewed_frequency_trace(seed=23)
        service = LivePoolService(trace, "GD", MEMORY_MB, clock=SimClock())
        thread = ServerThread(service).start()
        try:
            report = run_loadgen(trace, thread.host, thread.port)
        finally:
            thread.stop()
        assert report.errors_5xx == 0
        assert report.completed == len(trace)
        offline = simulate(trace, "GD", MEMORY_MB)
        assert service.counters() == offline.metrics.counters()

    def test_expiry_timer_drains_idle_pool(self):
        import time

        from repro.core.policies.base import create_policy
        from repro.traces.model import Trace, TraceFunction

        # One fast function so the invocation completes in real
        # milliseconds; then the background tick alone must expire the
        # idle container (no further arrivals to piggyback on).
        trace = Trace(
            [
                TraceFunction(
                    name="quick",
                    memory_mb=64.0,
                    warm_time_s=0.001,
                    cold_time_s=0.005,
                )
            ],
            [],
            name="timer-test",
        )
        service = LivePoolService(
            trace, create_policy("TTL", ttl_s=0.05), MEMORY_MB
        )
        thread = ServerThread(service, tick_interval_s=0.02).start()
        try:
            status, __ = _request(
                thread, "POST", "/admit", {"function": "quick"}
            )
            assert status == 200
            stats = None
            for __ in range(250):  # up to ~5 s on a loaded machine
                stats = fetch_stats(thread.host, thread.port)
                if stats["counters"]["expirations"] >= 1:
                    break
                time.sleep(0.02)
            assert stats is not None
            assert stats["counters"]["expirations"] >= 1
            assert stats["pool"]["containers"] == 0
        finally:
            thread.stop()

    def test_openloop_latency_includes_sender_lateness(self, monkeypatch):
        """Coordinated omission: an open-loop request's RTT runs from
        its scheduled send time. A generator that stalls before its
        first send leaves the whole schedule overdue, and every
        reported RTT must include that lateness."""
        import time

        from repro.live import loadgen

        stall_s = 0.3
        encode = loadgen._encode_admit
        stalled = []

        def stalling_encode(function_name, now_s):
            if not stalled:
                stalled.append(True)
                time.sleep(stall_s)  # blocks the generator's event loop
            return encode(function_name, now_s)

        monkeypatch.setattr(loadgen, "_encode_admit", stalling_encode)
        trace = skewed_frequency_trace(seed=23)
        count = 40
        times = [inv.time_s for inv in trace][:count]
        # Compress the schedule so every request is due within 10 ms.
        speed = max(times[-1] - times[0], 1e-3) / 0.01
        service = LivePoolService(trace, "GD", MEMORY_MB)
        thread = ServerThread(service).start()
        try:
            report = run_loadgen(
                trace,
                thread.host,
                thread.port,
                mode="openloop",
                speed=speed,
                limit=count,
            )
        finally:
            thread.stop()
        assert report.completed == report.sent == count
        assert report.statuses == {200: count}
        # Due within 10 ms of the start, sent after a 300 ms stall:
        # every RTT carries at least the remaining ~290 ms of lateness.
        assert report.client_latency.summary()["min_us"] >= 0.28e6
