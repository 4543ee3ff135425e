"""Harness health: raw simulator throughput per policy.

Not a paper artefact — a performance-regression guard for the
substrate itself. The original authors note their simulation is
"compute-intensive (i.e. slow)"; this benchmark tracks how many
invocations per second each policy sustains in our implementation, so
a future change that accidentally makes victim selection quadratic
shows up here instead of as a mysteriously slow Figure 5 sweep.

Two configurations:

* the **multitenant** workload — the moderate-pool regime of the
  figure sweeps, guarded by an absolute invocations/second floor;
* the **eviction-heavy** workload — a working set far above capacity
  cycling through a large idle pool, where every arrival is a miss
  that must select a victim. Here the pool's lazy victim index
  (:meth:`ContainerPool.iter_victims`) is required to beat the
  sort-every-miss path by a healthy margin.

Unlike the figure benches (single-shot ``pedantic`` runs), these use
pytest-benchmark's normal repeated timing; the index-vs-sort ratio is
measured with best-of-N wall clocks since it compares two variants in
one test.
"""

import heapq
import random
import time
from bisect import insort

import pytest

from repro.core.container import Container, ContainerState
from repro.core.pool import _UNSCORED_KEY, CapacityError, ContainerPool
from repro.core.policies import create_policy
from repro.sim.scheduler import KeepAliveSimulator
from repro.traces.model import Invocation, Trace, TraceFunction
from repro.traces.synth import multitenant_trace

TRACE = multitenant_trace(duration_s=900.0, num_tenants=24)
MEMORY_MB = 4096.0


def replay(policy_name):
    sim = KeepAliveSimulator(TRACE, create_policy(policy_name), MEMORY_MB)
    return sim.run()


@pytest.mark.parametrize("policy", ["GD", "TTL", "LRU", "HIST", "ARC", "LND"])
def test_simulator_throughput(benchmark, policy):
    result = benchmark(replay, policy)
    metrics = result.metrics
    assert metrics.served + metrics.dropped == len(TRACE)
    # Guard: the simulator must stay above 10k invocations/second for
    # every policy (typical rates are far higher). Skipped under
    # --benchmark-disable, where no timings are collected.
    if benchmark.stats is not None:
        seconds_per_run = benchmark.stats.stats.mean
        rate = len(TRACE) / seconds_per_run
        assert rate > 10_000, f"{policy}: {rate:.0f} inv/s"


# ----------------------------------------------------------------------
# Eviction-heavy configuration: the victim-index regime
# ----------------------------------------------------------------------

#: 800 functions x 128 MB = a 100 GB working set against 24 GB of
#: memory (~190 idle slots). Shuffled round-robin arrivals make nearly
#: every invocation a cold start that evicts from a large idle pool.
EVICTION_HEAVY_MEMORY_MB = 24.0 * 1024.0


def _eviction_heavy_trace(
    num_functions: int = 800,
    memory_mb: float = 128.0,
    rounds: int = 25,
    seed: int = 5,
) -> Trace:
    functions = [
        TraceFunction(f"f{i:03d}", memory_mb, 0.2, 1.0)
        for i in range(num_functions)
    ]
    rng = random.Random(seed)
    invocations = []
    t = 0.0
    for _ in range(rounds):
        order = list(range(num_functions))
        rng.shuffle(order)
        for i in order:
            invocations.append(Invocation(t, f"f{i:03d}"))
            t += 0.05
    return Trace(functions, invocations, name="eviction-heavy")


EVICTION_HEAVY_TRACE = _eviction_heavy_trace()


def _churn_rate(use_index: bool, repeats: int = 3) -> float:
    """Best-of-N invocations/second for GD on the churn workload."""
    best = float("inf")
    for _ in range(repeats):
        policy = create_policy("GD")
        if not use_index:
            # Instance-level override forces the exact sort-every-miss
            # path; victim choices are identical either way.
            policy.monotone_priority = False
        sim = KeepAliveSimulator(
            EVICTION_HEAVY_TRACE, policy, EVICTION_HEAVY_MEMORY_MB
        )
        started = time.perf_counter()
        sim.run()
        best = min(best, time.perf_counter() - started)
    return len(EVICTION_HEAVY_TRACE) / best


def test_eviction_heavy_throughput(benchmark):
    result = benchmark(
        lambda: KeepAliveSimulator(
            EVICTION_HEAVY_TRACE, create_policy("GD"), EVICTION_HEAVY_MEMORY_MB
        ).run()
    )
    metrics = result.metrics
    assert metrics.served + metrics.dropped == len(EVICTION_HEAVY_TRACE)
    # The workload must actually exercise victim selection.
    assert metrics.evictions > len(EVICTION_HEAVY_TRACE) * 0.9


def test_victim_index_speedup():
    """The lazy index must beat sorting every idle container per miss
    by >= 1.5x on the eviction-heavy configuration (locally ~3x)."""
    indexed = _churn_rate(use_index=True)
    legacy = _churn_rate(use_index=False)
    ratio = indexed / legacy
    assert ratio >= 1.5, (
        f"victim index {indexed:,.0f} inv/s vs sort {legacy:,.0f} inv/s "
        f"(ratio {ratio:.2f}x, expected >= 1.5x)"
    )


# ----------------------------------------------------------------------
# Disabled-instrumentation overhead: the null fast paths
# ----------------------------------------------------------------------
#
# The repro.obs instrumentation must be free when off: with no tracer
# the hot path pays only ``is None`` tests. The same budget covers the
# repro.faults layer — with no fault spec the hot path pays one
# ``self._faults is not None`` and one ``self._down`` bool test per
# invocation. The baseline below is a frozen copy of the
# pre-observability, pre-fault hot-path methods (every tracer line and
# fault guard deleted); running both variants interleaved and comparing
# best-of-N wall clocks measures exactly what the emission-site and
# fault guards cost together. A metrics-identity assertion keeps the
# frozen copy honest — if the real hot path changes behaviour, the
# copy must be re-frozen.

OVERHEAD_BUDGET_PCT = 2.0


class _UntracedPool(ContainerPool):
    """ContainerPool.add without the spawn-event emission branch."""

    def add(self, container):
        if container.state == ContainerState.DEAD:
            raise ValueError("cannot add a dead container")
        if container.container_id in self._containers:
            raise ValueError(
                f"container {container.container_id} already pooled"
            )
        if not self.can_fit(container.memory_mb):
            raise CapacityError(
                f"container needs {container.memory_mb} MB but only "
                f"{self.free_mb:.1f} MB is free"
            )
        if container.pool is not None:
            raise ValueError(
                f"container {container.container_id} already belongs "
                "to a pool"
            )
        container.pool = self
        self._containers[container.container_id] = container
        peers = self._by_function.setdefault(container.function.name, [])
        if peers and container.container_id < peers[-1]:
            insort(peers, container.container_id)
        else:
            peers.append(container.container_id)
        self._used_mb += container.memory_mb
        # Tenant accounting is not instrumentation: ``evict`` (not
        # frozen) debits it, so the copy must credit it.
        tenant_id = container.function.tenant_id
        self._tenant_used_mb[tenant_id] = (
            self._tenant_used_mb.get(tenant_id, 0.0) + container.memory_mb
        )
        self._tenant_count[tenant_id] = (
            self._tenant_count.get(tenant_id, 0) + 1
        )
        if not container.pinned:
            heapq.heappush(
                self._victim_heap, (_UNSCORED_KEY, container.container_id)
            )
            self._unscheduled[container.container_id] = container
            if container.is_idle:
                self._evictable_mb += container.memory_mb
                self._idle_unpinned += 1
        if self._sanitize:
            self._sanitize_accounting()


class _UntracedSimulator(KeepAliveSimulator):
    """KeepAliveSimulator with every emission site stripped out."""

    def __init__(self, trace, policy, memory_mb):
        super().__init__(trace, policy, memory_mb)
        self.pool = _UntracedPool(memory_mb)

    def _release_finished(self, now_s):
        while self._running and self._running[0][0] <= now_s:
            finish_s, __, container = heapq.heappop(self._running)
            container.finish_invocation(finish_s)
            if container.pinned:
                continue
            if not self.policy.should_retain(container, finish_s, self.pool):
                self.pool.evict(container)
                self.policy.on_evict(
                    container, finish_s, self.pool, pressure=False
                )
                self.metrics.expirations += 1

    def _expire_containers(self, now_s):
        for container, __ in self.policy.expired_containers(self.pool, now_s):
            self.pool.evict(container)
            self.policy.on_evict(container, now_s, self.pool, pressure=False)
            self.metrics.expirations += 1

    def _evict_for(self, needed_mb, now_s):
        victims = self.policy.select_victims(self.pool, needed_mb, now_s)
        if victims is None:
            return False
        for container in victims:
            self.pool.evict(container)
            self.policy.on_evict(container, now_s, self.pool, pressure=True)
            self.metrics.evictions += 1
        return True

    def process_invocation(self, function, now_s):
        self._release_finished(now_s)
        self._expire_containers(now_s)
        self._materialize_prewarms(now_s)
        self.policy.on_invocation(function, now_s, self.pool)

        container = self.pool.idle_warm_container(function.name)
        if container is not None:
            duration = function.warm_time_s
            if container.prewarmed and container.invocation_count == 0:
                duration += (
                    (1.0 - self.prewarm_effectiveness) * function.init_time_s
                )
            container.start_invocation(now_s, duration)
            heapq.heappush(
                self._running,
                (container.busy_until_s, container.container_id, container),
            )
            self.policy.on_warm_start(container, now_s, self.pool)
            if now_s >= self.warmup_s:
                self.metrics.record_warm(
                    function.name, function.warm_time_s, actual_time_s=duration
                )
            self._sample_memory(now_s)
            return "warm"

        if not self._evict_for(function.memory_mb, now_s):
            if now_s >= self.warmup_s:
                self.metrics.record_dropped(function.name)
            self._sample_memory(now_s)
            return "dropped"

        container = Container(function, created_at_s=now_s)
        self.pool.add(container)
        container.start_invocation(now_s, function.cold_time_s)
        heapq.heappush(
            self._running,
            (container.busy_until_s, container.container_id, container),
        )
        self.policy.on_cold_start(container, now_s, self.pool)
        if now_s >= self.warmup_s:
            self.metrics.record_cold(
                function.name, function.warm_time_s, function.cold_time_s
            )
        self._sample_memory(now_s)
        return "cold"


def _timed_batch(simulator_cls, batch=3):
    """Wall-clock seconds for ``batch`` back-to-back GD replays."""
    sims = [
        simulator_cls(TRACE, create_policy("GD"), MEMORY_MB)
        for __ in range(batch)
    ]
    started = time.perf_counter()
    for sim in sims:
        sim.run()
    return time.perf_counter() - started


def measure_disabled_overhead_pct(repeats=15, batch=3):
    """Overhead of the (disabled) instrumentation, in percent.

    Robust to the frequency drift of shared CI machines: the two
    variants run back-to-back as a pair (order alternating each
    repeat), each pair yields an instrumented/baseline ratio, and the
    median ratio over all pairs is reported. Adjacent-in-time pairing
    cancels slow machine phases; the median discards the pairs a
    scheduler hiccup landed in. Can be slightly negative — noise
    around a true cost near zero.
    """
    import statistics

    ratios = []
    for i in range(repeats):
        if i % 2 == 0:
            base = _timed_batch(_UntracedSimulator, batch)
            inst = _timed_batch(KeepAliveSimulator, batch)
        else:
            inst = _timed_batch(KeepAliveSimulator, batch)
            base = _timed_batch(_UntracedSimulator, batch)
        ratios.append(inst / base)
    return 100.0 * (statistics.median(ratios) - 1.0)


def test_untraced_baseline_identical():
    """The frozen baseline must replay bit-identically to the real
    hot path, otherwise the overhead comparison measures behaviour
    drift instead of instrumentation cost."""
    real = KeepAliveSimulator(TRACE, create_policy("GD"), MEMORY_MB).run()
    frozen = _UntracedSimulator(TRACE, create_policy("GD"), MEMORY_MB).run()
    assert real.metrics.summary() == frozen.metrics.summary()
    assert real.metrics.counters() == frozen.metrics.counters()


def test_tracing_disabled_overhead():
    """Disabled tracing *and* disabled fault injection together must
    cost < 2% throughput on the multitenant configuration (the frozen
    baseline predates both layers). Re-measures on failure: the gate
    is tight enough that a single noisy best-of-N can spuriously trip
    it."""
    pct = None
    for __ in range(3):
        pct = measure_disabled_overhead_pct()
        if pct <= OVERHEAD_BUDGET_PCT:
            break
    assert pct <= OVERHEAD_BUDGET_PCT, (
        f"disabled tracing costs {pct:.2f}% "
        f"(budget {OVERHEAD_BUDGET_PCT:.1f}%)"
    )
