"""Each Greedy-Dual family member scores with its own value term.

``GreedyDualPolicy._value_term`` is the family's single override
point: GDS drops the frequency, the OpenWhisk variant learns its cost
from observed runs, and tenant weights scale the whole term. The hot
path computes the term once per arrival and reuses it in the start
hook, so a change that computed the GD formula in place of the
override would quietly turn every member into plain GD. These tests
catch that: pinned replay counters that tell GD and GDS apart, and a
priority invariant checked after every arrival for each member.
"""

from __future__ import annotations

import random

import pytest

from repro.core.container import Container
from repro.core.function import FunctionStatsTable
from repro.core.policies.gds import GreedyDualSizePolicy
from repro.core.policies.greedy_dual import GreedyDualPolicy
from repro.core.pool import ContainerPool
from repro.openwhisk.containerpool import OnlineGreedyDualPolicy
from repro.sim.scheduler import KeepAliveSimulator, simulate
from repro.traces.model import Invocation, Trace, TraceFunction
from repro.traces.synth import skewed_frequency_trace


class TestPinnedReplays:
    def test_gd_and_gds_replays_differ(self):
        trace = skewed_frequency_trace(seed=1)
        gd = simulate(trace, "GD", 1024).metrics
        gds = simulate(trace, "GDS", 1024).metrics
        assert (gd.cold_starts, gd.evictions) == (5953, 5948)
        assert (gds.cold_starts, gds.evictions) == (6079, 6075)
        assert gd.counters() != gds.counters()


def _random_trace(seed: int, tenants: bool) -> Trace:
    rng = random.Random(seed)
    functions = []
    for i in range(12):
        warm = rng.uniform(0.05, 2.0)
        functions.append(
            TraceFunction(
                name=f"f{i:02d}",
                memory_mb=rng.choice((64.0, 128.0, 256.0, 512.0)),
                warm_time_s=warm,
                cold_time_s=warm + rng.uniform(0.1, 5.0),
                tenant_id=(1 + i % 3) if tenants else 0,
            )
        )
    invocations = []
    t = 0.0
    for __ in range(600):
        t += rng.expovariate(2.0)
        # Skewed popularity so some functions stay warm and others churn.
        index = min(int(rng.paretovariate(1.2)) - 1, len(functions) - 1)
        invocations.append(Invocation(t, functions[index].name))
    return Trace(functions, invocations, name=f"gd-family-{seed}")


def _member(label: str):
    """``(policy, learned-cost table or None, tenant ids on?)``."""
    if label == "GD":
        return GreedyDualPolicy(), None, False
    if label == "GDS":
        return GreedyDualSizePolicy(), None, False
    if label == "online":
        stats = FunctionStatsTable()
        return OnlineGreedyDualPolicy(stats), stats, False
    return GreedyDualPolicy(tenant_weights={1: 3.0, 2: 0.5}), None, True


@pytest.mark.parametrize("label", ["GD", "GDS", "online", "tenant-weighted"])
def test_priority_is_stamp_plus_own_value_term(label):
    policy, stats, tenants = _member(label)
    trace = _random_trace(seed=5, tenants=tenants)
    sim = KeepAliveSimulator(trace, policy, memory_mb=1024.0)
    rng = random.Random(9)
    outcomes = set()
    for invocation in trace:
        function = trace.functions[invocation.function_name]
        if stats is not None:
            # The learned cost moves before the function's arrival, as
            # it would after the invoker observed a completed run.
            stats.get(function.name).observe_cold(function.cold_time_s)
            stats.get(function.name).observe_warm(
                function.warm_time_s * rng.uniform(0.5, 1.0)
            )
        outcomes.add(sim.process_invocation(function, invocation.time_s))
        for container in sim.pool.all_containers():
            expected = container.clock_stamp + policy._value_term(
                container.function
            )
            assert container.priority == expected, (
                label,
                invocation,
                container,
            )
    # The trace exercises hits, misses with evictions, and drops.
    assert outcomes == {"warm", "cold", "dropped"}
    assert sim.metrics.evictions > 0


def test_online_start_rescores_with_cost_learned_after_arrival():
    """The invoker may start a queued request after a completion has
    updated the learned cost: the start hook must score with the cost
    as it is then, not as it was when the arrival was announced."""
    stats = FunctionStatsTable()
    policy = OnlineGreedyDualPolicy(stats)
    function = TraceFunction("A", memory_mb=100.0, warm_time_s=1.0, cold_time_s=9.0)
    stats.get("A").observe_cold(9.0)
    pool = ContainerPool(1000.0)
    policy.on_invocation(function, 0.0, pool)
    announced = policy._value_term(function)
    stats.get("A").observe_warm(1.0)  # a completion lands meanwhile
    container = Container(function, created_at_s=0.0)
    pool.add(container)
    container.start_invocation(0.0, function.cold_time_s)
    policy.on_cold_start(container, 0.0, pool)
    assert container.priority == policy._value_term(function) != announced


def test_start_rescores_after_announced_function_lost_its_containers():
    """An invoker's background reclaim can evict the announced
    function's last idle container before the request starts; Freq
    then resets and the start hook must score with the reset value."""
    policy = GreedyDualPolicy()
    function = TraceFunction("A", memory_mb=100.0, warm_time_s=1.0, cold_time_s=3.0)
    pool = ContainerPool(1000.0)
    idle = Container(function, created_at_s=0.0)
    pool.add(idle)
    policy.on_invocation(function, 0.0, pool)
    pool.evict(idle)
    policy.on_evict(idle, 0.0, pool, pressure=True)
    assert policy.frequency_of("A") == 0
    container = Container(function, created_at_s=1.0)
    pool.add(container)
    container.start_invocation(1.0, function.cold_time_s)
    policy.on_cold_start(container, 1.0, pool)
    assert container.priority == container.clock_stamp + policy._value_term(
        function
    )
