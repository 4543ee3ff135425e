"""Trace/aggregate consistency and offline report reconstruction.

The core gate: for any fully-traced seeded run, the lifecycle counters
rebuilt from the event stream must equal the simulator's live
:meth:`SimulationMetrics.counters` — the trace is complete, nothing is
double-counted, nothing is missed.
"""

import pytest

from repro.core.policies import create_policy
from repro.core.policies.histogram import HistogramPolicy
from repro.faults import FaultSpec
from repro.obs.events import (
    COUNTER_NAMES,
    EVENT_SCHEMAS,
    EVICTION_REASONS,
    LIFECYCLE_COUNTERS,
    TENANT_COUNTER_NAMES,
)
from repro.obs.report import TraceReport, load_report, report_from_events
from repro.obs.sinks import RingBufferSink
from repro.obs.tracer import Tracer
from repro.sim.scheduler import KeepAliveSimulator
from repro.traces.synth import (
    cyclic_trace,
    harvest_day_trace,
    multitenant_trace,
    noisy_neighbor_trace,
    skewed_frequency_trace,
)
from tests.conftest import make_trace
from tests.test_prewarm_effectiveness import sparse_predictable_trace


def traced_run(policy, trace, memory_mb, **sim_kwargs):
    """Replay ``trace`` fully traced; ``policy`` is a name or an
    instance."""
    sink = RingBufferSink(capacity=2_000_000)
    if isinstance(policy, str):
        policy = create_policy(policy)
    sim = KeepAliveSimulator(
        trace, policy, memory_mb,
        tracer=Tracer(sink, strict=True),
        **sim_kwargs,
    )
    sim.run()
    return sim.metrics, report_from_events(sink)


class TestCountersConsistency:
    """Rebuilt counters == live counters, across policies that
    exercise every eviction reason."""

    @pytest.mark.parametrize("policy", ["GD", "TTL", "LRU", "HIST",
                                        "DOORKEEPER", "FREQ"])
    def test_skewed_frequency(self, policy):
        trace = skewed_frequency_trace(seed=1, duration_s=600.0)
        metrics, report = traced_run(policy, trace, 512.0)
        assert report.counters() == metrics.counters()
        assert report.check_counters(metrics.counters()) == []

    @pytest.mark.parametrize("policy", ["GD", "TTL", "DOORKEEPER"])
    def test_multitenant(self, policy):
        trace = multitenant_trace(duration_s=600.0, num_tenants=8)
        metrics, report = traced_run(policy, trace, 1024.0)
        assert report.counters() == metrics.counters()

    def test_expiry_heavy(self):
        # Long gaps force TTL expirations (reason="expiry"), which must
        # land in the `expirations` counter, not `evictions`.
        metrics, report = traced_run(
            "TTL", make_trace("ABAB" * 3, gap_s=400.0), 8192.0
        )
        assert metrics.expirations > 0
        assert report.counters() == metrics.counters()
        assert report.evictions_by_reason.get("expiry", 0) > 0

    def test_admission_heavy(self):
        # Doorkeeper refusals (reason="admission") also count as
        # expirations in the simulator's aggregate.
        metrics, report = traced_run(
            "DOORKEEPER", make_trace("ABCADAEA", gap_s=5.0), 8192.0
        )
        assert report.evictions_by_reason.get("admission", 0) > 0
        assert report.counters() == metrics.counters()

    def test_mismatch_is_reported(self):
        metrics, report = traced_run(
            "GD", skewed_frequency_trace(seed=1, duration_s=300.0), 512.0
        )
        expected = dict(metrics.counters())
        expected["warm_starts"] += 1
        expected["nonsense"] = 5
        mismatches = report.check_counters(expected)
        assert len(mismatches) == 2
        assert any("warm_starts" in m for m in mismatches)
        assert any("nonsense" in m for m in mismatches)

    def test_missing_counter_is_reported(self):
        # A truncated summary must not pass the gate by omission.
        metrics, report = traced_run(
            "GD", skewed_frequency_trace(seed=1, duration_s=300.0), 512.0
        )
        expected = dict(metrics.counters())
        for key in ("cold_starts", "evictions", "deflations"):
            del expected[key]
        mismatches = report.check_counters(expected)
        assert len(mismatches) == 3
        for key in ("cold_starts", "evictions", "deflations"):
            assert any(m.startswith(f"{key}:") for m in mismatches)

    def test_counter_keys_match_simulation_metrics(self):
        from repro.sim.metrics import SimulationMetrics

        assert set(TraceReport().counters()) == set(
            SimulationMetrics().counters()
        )

    def test_faulted_run_counters_agree(self):
        # The consistency gate must survive the chaos layer: a run
        # with injected faults, retries, sheds, and a server outage
        # still reconstructs the simulator's counters exactly from
        # the event stream (warmup_s=0, so nothing is gated away).
        from repro.faults import FaultSpec

        spec = FaultSpec(
            seed=11,
            spawn_failure_rate=0.05,
            crash_rate=0.03,
            timeout_rate=0.02,
            server_downtimes=((0, 200.0, 260.0),),
            max_retries=2,
            per_function_retry_budget=10,
        )
        trace = skewed_frequency_trace(seed=1, duration_s=600.0)
        metrics, report = traced_run("GD", trace, 512.0, fault_spec=spec)
        # The run must actually exercise every new counter.
        assert metrics.faults_injected > 0
        assert metrics.retries > 0
        assert metrics.sheds > 0
        assert metrics.server_downs == 1
        assert report.counters() == metrics.counters()
        assert report.check_counters(metrics.counters()) == []
        # By-kind / by-reason breakdowns agree with the live metrics.
        assert report.faults_by_kind == dict(metrics.faults_by_kind)
        assert report.sheds_by_reason == dict(metrics.sheds_by_reason)
        # "failure" evictions (crashed containers, dead servers) stay
        # out of the cache-policy counters on both sides.
        assert report.evictions_by_reason.get("failure", 0) > 0


#: Traced replays that between them drive every lifecycle-counter row
#: above zero: (policy, trace, memory_mb, simulator kwargs).
_COVERAGE_SCENARIOS = {
    "skewed-frequency": (
        "GD", skewed_frequency_trace(seed=1, duration_s=600.0), 512.0, {}
    ),
    "expiry-heavy": ("TTL", make_trace("ABAB" * 3, gap_s=400.0), 8192.0, {}),
    "doorkeeper-admission": (
        "DOORKEEPER", make_trace("ABCADAEA", gap_s=5.0), 8192.0, {}
    ),
    "hist-prewarm": (
        HistogramPolicy(min_samples=2), sparse_predictable_trace(), 10_000.0,
        {},
    ),
    "faulted": (
        "GD",
        skewed_frequency_trace(seed=1, duration_s=600.0),
        512.0,
        {
            "fault_spec": FaultSpec(
                seed=11,
                spawn_failure_rate=0.05,
                crash_rate=0.03,
                timeout_rate=0.02,
                server_downtimes=((0, 200.0, 260.0),),
                max_retries=2,
                per_function_retry_budget=10,
            )
        },
    ),
    "harvest-day": (
        "GD",
        harvest_day_trace(duration_s=1800.0),
        6144.0,
        {
            "fault_spec": FaultSpec(
                seed=7,
                harvest_interval_s=300.0,
                harvest_min_frac=0.5,
                harvest_max_frac=0.95,
                spot_mtbf_s=900.0,
                spot_notice_s=30.0,
            )
        },
    ),
    "noisy-neighbor-quota": (
        "GD",
        noisy_neighbor_trace(duration_s=900.0),
        4096.0,
        {"tenant_mode": "quota", "tenant_quotas": {1: 1024.0}},
    ),
}


class TestCounterTable:
    """The declared lifecycle-counter table is well-formed, and every
    row's event filter is exercised: equality on a row that reads zero
    on both sides cannot catch a wrong filter."""

    def test_rows_refer_to_declared_events(self):
        assert len(set(COUNTER_NAMES)) == len(COUNTER_NAMES)
        for row in LIFECYCLE_COUNTERS:
            assert row.event in EVENT_SCHEMAS, row
            if row.field is not None:
                assert row.field in EVENT_SCHEMAS[row.event], row
            if (row.event, row.field) == ("evicted", "reason"):
                assert set(row.values) <= set(EVICTION_REASONS), row
            elif row.values:
                pytest.fail(f"no vocabulary to check {row} against")

    def test_every_row_nonzero_in_an_agreeing_replay(self):
        covered, tenant_covered = set(), set()
        for label, scenario in _COVERAGE_SCENARIOS.items():
            policy, trace, memory_mb, kwargs = scenario
            metrics, report = traced_run(policy, trace, memory_mb, **kwargs)
            assert report.counters() == metrics.counters(), label
            assert (
                report.tenant_counters() == metrics.tenant_counters()
            ), label
            covered.update(k for k, v in metrics.counters().items() if v)
            for counts in metrics.tenant_counters().values():
                tenant_covered.update(k for k, v in counts.items() if v)
        assert covered == set(COUNTER_NAMES)
        assert tenant_covered == set(TENANT_COUNTER_NAMES)


class TestTimelines:
    def test_per_function_event_order(self):
        __, report = traced_run("GD", make_trace("AAB", gap_s=10.0), 8192.0)
        timeline = report.timeline("A")
        kinds = [kind for __, kind in timeline.events]
        assert kinds[:3] == [
            "invocation_arrived", "container_spawned", "cold_start"
        ]
        assert "warm_hit" in kinds
        assert timeline.counts()["invocation_arrived"] == 2

    def test_unknown_function_raises(self):
        __, report = traced_run("GD", make_trace("A", gap_s=1.0), 8192.0)
        with pytest.raises(KeyError, match="never appears"):
            report.timeline("nope")


class TestChurn:
    def test_refaults_tracked(self):
        # Tight memory on a cyclic workload: evicted functions return
        # and re-fault, the thrash signature.
        metrics, report = traced_run("GD", cyclic_trace(), 768.0)
        assert metrics.evictions > 0
        top = report.most_evicted(5)
        assert top
        assert top[0].evictions >= top[-1].evictions
        assert any(e.refaults > 0 for e in top)
        refaulted = next(e for e in top if e.refaults > 0)
        assert refaulted.refault_gap_s > 0.0

    def test_pressure_summary(self):
        __, report = traced_run("GD", cyclic_trace(), 768.0)
        assert report.pressure_events > 0
        assert 0.0 < report.peak_utilization <= 1.0
        assert report.peak_used_mb <= 768.0


class TestRendering:
    def test_render_sections(self):
        __, report = traced_run("GD", cyclic_trace(), 768.0)
        text = report.render(top_n=3)
        assert "lifecycle counters" in text
        assert "evictions by reason" in text
        assert "eviction churn" in text
        assert "memory pressure" in text

    def test_render_empty_report(self):
        text = TraceReport().render()
        assert "0 events" in text

    def test_lifecycle_counter_values_share_one_column(self):
        __, report = traced_run("GD", cyclic_trace(), 768.0)
        lines = report.render().splitlines()
        start = lines.index("lifecycle counters (rebuilt from the trace):")
        block = lines[start + 1:start + 1 + len(COUNTER_NAMES)]
        assert [line.split()[0] for line in block] == list(COUNTER_NAMES)
        assert len({line.rindex(" ") for line in block}) == 1


class TestLoadReport:
    def test_from_jsonl_file(self, tmp_path):
        from repro.obs.sinks import JsonlSink

        path = tmp_path / "run.jsonl"
        trace = skewed_frequency_trace(seed=1, duration_s=300.0)
        with JsonlSink(path) as sink:
            sim = KeepAliveSimulator(
                trace, create_policy("GD"), 512.0,
                tracer=Tracer(sink, strict=True),
            )
            sim.run()
        report = load_report(path)
        assert report.counters() == sim.metrics.counters()
        assert report.total_events == sink.events_written
