"""Per-arrival call budget of the sequential replay path.

Wall clock is too noisy to pin in a unit test, but the number of
Python calls a seeded replay makes is exact: cProfile counts every
function call, so ``total_calls / invocations`` repeats bit for bit
for the same code and trace. These tests cap that count for a small GD
replay (hits, evictions and drops) and a small HIST replay (expiry
heap and prewarms), both through ``ColumnarReplayEngine``, at the
measured count plus 10%. A change that puts per-arrival calls back
(property reads, no-op phase calls, a value term computed twice) trips
the cap; a change that removes more calls should lower it.

Counts were measured on CPython 3.11 with the sanitizer off (it adds
whole-pool recounts). Other CPython versions may count a call or so
differently per arrival (3.12 inlines comprehensions, for one); the
headroom absorbs that.
"""

from __future__ import annotations

import cProfile
import pstats

import pytest

from repro.bench import churn_trace
from repro.checks.sanitize import set_sanitize
from repro.sim.columnar import ColumnarReplayEngine
from repro.traces.columnar import ColumnarTrace
from repro.traces.synth import skewed_frequency_trace

#: Measured calls per invocation, and the 10% headroom on top.
GD_CALLS_PER_INV = 32.15
HIST_CALLS_PER_INV = 67.38
HEADROOM = 1.10


@pytest.fixture(autouse=True)
def _sanitizer_off():
    set_sanitize(False)
    try:
        yield
    finally:
        set_sanitize(None)


def _calls_per_invocation(trace, policy: str, memory_mb: float):
    columnar = ColumnarTrace.from_trace(trace)
    engine = ColumnarReplayEngine(policy, memory_mb)
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = engine.run(columnar)
    finally:
        profile.disable()
    metrics = result.metrics
    invocations = metrics.warm_starts + metrics.cold_starts + metrics.dropped
    assert invocations == len(trace)
    return pstats.Stats(profile).total_calls / invocations, metrics


def test_gd_replay_call_budget():
    per_inv, metrics = _calls_per_invocation(
        skewed_frequency_trace(seed=1), "GD", 1024.0
    )
    # The replay really takes every per-arrival path.
    assert (metrics.cold_starts, metrics.evictions, metrics.dropped) == (
        5953,
        5948,
        8013,
    )
    assert per_inv <= GD_CALLS_PER_INV * HEADROOM, per_inv


def test_hist_replay_call_budget():
    trace = churn_trace(num_functions=200, duration_s=4800.0, seed=7)
    per_inv, metrics = _calls_per_invocation(trace, "HIST", 65536.0)
    assert (metrics.expirations, metrics.prewarms) == (1084, 983)
    assert per_inv <= HIST_CALLS_PER_INV * HEADROOM, per_inv
