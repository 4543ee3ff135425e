"""The trace-driven keep-alive simulator.

A reproduction of the paper's discrete-event simulator (Section 6,
"Keep-alive Simulator": ~2,000 lines of Python replaying Azure trace
samples). Each invocation is processed in arrival order; between
arrivals, container completions, time-based expirations, and scheduled
prewarms are applied lazily — exactly the structure of the original
``LambdaScheduler.runActivation``:

1. release containers whose invocations have finished,
2. ``cleanup_finished`` — expire containers past their TTL (TTL/HIST),
3. ``PreWarmContainers`` — materialize due prewarms (HIST),
4. find a warm idle container (cache hit) or create one (cache miss),
   evicting the lowest-priority idle containers if memory is short,
5. update the policy's priorities and bookkeeping.

An invocation that cannot obtain memory even after evicting every idle
container is **dropped** — all containers are busy running, which is
the behaviour that separates FaaS keep-alive from classical caching
(Section 5.1's "Limitations of the Caching Analogy").
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.checks.sanitize import (
    ReportSink,
    check_counter_equality,
    check_tenant_counter_equality,
    sanitize_enabled,
)
from repro.core.clock import SimClock, wall_clock_s
from repro.core.container import Container
from repro.core.policies.base import KeepAlivePolicy, create_policy
from repro.core.pool import CapacityError, ContainerPool
from repro.faults import FaultModel, FaultSpec, RetryPolicy
from repro.obs.tracer import Tracer, active_tracer
from repro.sim.metrics import SimulationMetrics
from repro.traces.model import Trace, TraceFunction

__all__ = ["KeepAliveSimulator", "SimulationResult", "simulate"]


@dataclass
class SimulationResult:
    """Outcome of one (trace, policy, memory size) simulation."""

    trace_name: str
    policy_name: str
    memory_mb: float
    metrics: SimulationMetrics

    def __repr__(self) -> str:
        return (
            f"SimulationResult(trace={self.trace_name!r}, "
            f"policy={self.policy_name}, memory={self.memory_mb:.0f} MB, "
            f"cold={self.metrics.cold_start_pct:.2f}%, "
            f"increase={self.metrics.exec_time_increase_pct:.2f}%)"
        )


class KeepAliveSimulator:
    """Replays a trace against one keep-alive policy on one server."""

    def __init__(
        self,
        trace: Trace,
        policy: KeepAlivePolicy,
        memory_mb: float,
        track_memory_timeline: bool = False,
        timeline_interval_s: float = 60.0,
        prewarm_effectiveness: float = 1.0,
        reserved_concurrency: Optional[dict] = None,
        warmup_s: float = 0.0,
        tracer: Optional[Tracer] = None,
        fault_spec: Optional[FaultSpec] = None,
        server_index: int = 0,
        tenant_mode: str = "shared",
        tenant_quotas: Optional[Dict[int, float]] = None,
    ) -> None:
        """``prewarm_effectiveness`` models Section 9's explicit-
        initialization discussion: a prefetched (HIST) container only
        skips the application-level initialization if the function
        provides an explicit init callback, which the paper found FaaS
        applications rarely do. 1.0 means prewarming covers the whole
        init cost (explicit init everywhere); 0.0 means the first
        invocation on a prewarmed container still pays the full init
        (prewarming only saved the environment creation the trace's
        cold overhead does not include anyway).

        ``reserved_concurrency`` maps function names to a number of
        *pinned* containers created before replay — AWS-style
        provisioned concurrency (the paper's introduction cites
        exactly this industry mechanism). Pinned containers serve warm
        starts but can never be evicted or expired, so they both
        guarantee their function's warmth and permanently shrink the
        cache available to everyone else.

        ``warmup_s`` excludes a measurement warmup: invocations before
        this time are simulated with full fidelity (they populate the
        cache and the policy state) but are not counted in the
        metrics, removing the compulsory-miss transient from short
        replays — standard discrete-event-simulation practice.

        ``tracer`` (a :class:`repro.obs.Tracer`) turns on structured
        lifecycle-event emission: arrivals, warm hits, cold starts,
        spawns, evictions (with policy and priority), drops, and
        memory-pressure rounds. Disabled (the default) it costs one
        ``None`` check per emission site — the trace stream sees
        *every* invocation, including those before ``warmup_s`` that
        the metrics exclude.

        ``fault_spec`` (a :class:`repro.faults.FaultSpec`) turns on
        deterministic fault injection and retry/shed recovery; see
        ``docs/robustness.md``. A ``None`` or all-zero spec leaves the
        failure-free path byte-identical to a simulator built without
        the parameter. ``server_index`` identifies this server both in
        ``server_down``/``server_recovered`` events and as the
        coordinate for rate-based whole-server outages.

        ``tenant_mode`` selects the pool's multi-tenant behavior
        (docs/multi-tenancy.md): ``shared`` (the default, today's
        single-owner semantics), ``partitioned`` (hard per-tenant
        capacity slices), or ``quota`` (soft limits — an over-quota
        tenant becomes preferentially evictable). ``tenant_quotas``
        maps tenant ids to slice/quota MB; if omitted in a non-shared
        mode, capacity is split equally across the tenants appearing
        in the trace. Per-tenant metrics and ``tenant`` event fields
        are recorded whenever the trace carries tenant ids, in every
        mode; tenant-less traces replay byte-identically to the
        pre-tenancy simulator."""
        if not 0.0 <= prewarm_effectiveness <= 1.0:
            raise ValueError(
                f"prewarm effectiveness must be in [0, 1], "
                f"got {prewarm_effectiveness}"
            )
        if warmup_s < 0.0:
            raise ValueError(f"warmup must be >= 0, got {warmup_s}")
        self.trace = trace
        self.policy = policy
        # ``None`` when tracing is disabled: every emission site guards
        # with a plain ``is None`` test, the cheapest off switch.
        self._tracer = active_tracer(tracer)
        # Runtime sanitizer (docs/static-analysis.md): when enabled and
        # the caller attached no tracer of their own, record the event
        # stream into an in-memory report so run() can assert
        # trace/metrics counter equality at the end. Warmup runs are
        # excluded — metrics deliberately skip pre-warmup invocations
        # while the trace stream sees all of them.
        self._sanitize_report: Optional[ReportSink] = None
        if sanitize_enabled() and self._tracer is None and warmup_s <= 0.0:
            self._sanitize_report = ReportSink()
            self._tracer = Tracer(self._sanitize_report)
        # Multi-tenancy: per-tenant metrics (and ``tenant`` event
        # fields) are recorded exactly when the trace carries tenant
        # ids, so tenant-less replays take the legacy path bit for bit.
        self._tenants_active = any(
            f.tenant_id != 0 for f in trace.functions.values()
        )
        limits = tenant_quotas
        if tenant_mode != "shared" and limits is None:
            # Equal split across the trace's tenants — the sensible
            # default for CLI runs that name a mode but no quotas.
            tenant_ids = sorted(
                {f.tenant_id for f in trace.functions.values()}
            )
            share = memory_mb / len(tenant_ids) if tenant_ids else memory_mb
            limits = {tid: share for tid in tenant_ids}
        self.pool = ContainerPool(
            memory_mb,
            tracer=self._tracer,
            tenant_mode=tenant_mode,
            tenant_limits_mb=limits if tenant_mode != "shared" else None,
        )
        self.metrics = SimulationMetrics()
        # Timestamp source (docs/live-serving.md): the replay loop
        # advances this to each arrival and reads ``now_s`` back from
        # it, so sim and live mode share one code path — the live
        # service swaps in a RealTimeClock and drives the same engine.
        self.clock = SimClock()
        # Expiry fast path: policies that never expire (the resource-
        # conserving caching family) inherit the base
        # ``expired_containers``; detecting that once here lets the
        # event loop skip the expiry phase entirely instead of calling
        # into an empty-list stub 100k times per replay.
        self._policy_expires = (
            type(policy).expired_containers
            is not KeepAlivePolicy.expired_containers
        )
        # Prewarm fast path, same trick: only HIST (and wrappers)
        # override ``due_prewarms``, so everyone else skips the phase
        # without a call. For policies that *do* expire or prefetch,
        # the per-arrival work is further gated by the policies'
        # ``next_expiry_s``/``next_prewarm_s`` peeks (batched dispatch:
        # one float compare instead of a call returning a fresh empty
        # list on every quiet arrival).
        self._policy_prewarms = (
            type(policy).due_prewarms is not KeepAlivePolicy.due_prewarms
        )
        # Admission fast path, same trick: only doorkeepers override
        # ``should_retain``; everyone else retains every container, so
        # releases skip the call.
        self._policy_admits = (
            type(policy).should_retain is not KeepAlivePolicy.should_retain
        )
        self.prewarm_effectiveness = prewarm_effectiveness
        self.warmup_s = warmup_s
        self._track_timeline = track_memory_timeline
        self._timeline_interval_s = timeline_interval_s
        self._last_sample_s = float("-inf")
        # Min-heap of (finish_time, container_id, container) for
        # running invocations.
        self._running: List[Tuple[float, int, Container]] = []
        # ---- fault injection & recovery (docs/robustness.md) -------
        # Whether this server is currently failed. Maintained even
        # without a fault spec so cluster layers can drive
        # fail_server()/recover_server() externally.
        self._down = False
        self._down_since = 0.0
        self._server_index = int(server_index)
        # Harvested capacity (docs/robustness.md): the provisioned size
        # every capacity fraction is relative to. ``set_harvest_capacity``
        # resizes the pool against this, never against the previous
        # (possibly already-shrunk or deferral-clamped) capacity.
        self._nominal_capacity_mb = float(memory_mb)
        if fault_spec is not None and fault_spec.enabled:
            self._fault_spec: Optional[FaultSpec] = fault_spec
            self._faults: Optional[FaultModel] = FaultModel(fault_spec)
            self._retry: Optional[RetryPolicy] = RetryPolicy.from_spec(
                fault_spec
            )
            # Min-heap of (due_s, seq, function_name, attempt) pending
            # retries. ``seq`` is a per-simulator counter (never a
            # process-global one) so heap order — and therefore every
            # downstream decision — is identical across processes.
            self._retry_heap: List[Tuple[float, int, str, int]] = []
            self._retry_seq = 0
            # Scheduled whole-server outages for *this* server, as a
            # FIFO of (time_s, kind) transitions with kind "down"/"up".
            transitions: List[Tuple[float, str]] = []
            for down_s, up_s in self._faults.downtime_spans(
                self._server_index, trace.duration_s
            ):
                transitions.append((down_s, "down"))
                transitions.append((up_s, "up"))
            self._transitions: Deque[Tuple[float, str]] = deque(transitions)
            # Scheduled capacity events for *this* server: harvest
            # shrink/grow steps and spot notice/evict/restore triples,
            # already merged time-ordered (see
            # :meth:`FaultModel.server_capacity_events`).
            self._capacity_events: Deque[Tuple[float, str, float]] = deque(
                self._faults.server_capacity_events(
                    self._server_index, trace.duration_s
                )
            )
        else:
            self._fault_spec = None
            self._faults = None
            self._retry = None
            self._retry_heap = []
            self._retry_seq = 0
            self._transitions = deque()
            self._capacity_events = deque()
        # Provisioned concurrency: pinned containers exist from t=0.
        for name, count in (reserved_concurrency or {}).items():
            function = trace.functions.get(name)
            if function is None:
                raise ValueError(f"reserved function {name!r} not in trace")
            if count < 1:
                raise ValueError(f"reserved count for {name!r} must be >= 1")
            for __ in range(count):
                container = Container(function, created_at_s=0.0)
                container.pinned = True
                self.pool.add(container)  # raises CapacityError if too big

    # ------------------------------------------------------------------
    # Per-arrival phases
    # ------------------------------------------------------------------

    def _trace_evicted(
        self, container: Container, now_s: float, reason: str
    ) -> None:
        """Emit one ``evicted`` event (callers guard on the tracer)."""
        self._tracer.emit(
            "evicted",
            now_s,
            function=container.function.name,
            container_id=container.container_id,
            policy=self.policy.name,
            reason=reason,
            freed_mb=container.memory_mb,
            priority=self.policy.eviction_priority(container, now_s),
            idle_s=container.idle_time_s(now_s),
            age_s=max(0.0, now_s - container.created_at_s),
        )

    def _release_finished(self, now_s: float) -> None:
        while self._running and self._running[0][0] <= now_s:
            finish_s, __, container = heapq.heappop(self._running)
            container.finish_invocation(finish_s)
            # A doomed container (its invocation crashed, or its server
            # died under it) is torn down instead of returning to the
            # warm pool. Reason "failure" is excluded from the
            # evictions/expirations counters: the fault was already
            # counted when it was injected.
            if container.doomed:
                if self._tracer is not None:
                    self._trace_evicted(container, finish_s, "failure")
                self.pool.evict(container)
                self.policy.on_evict(
                    container, finish_s, self.pool, pressure=False
                )
                continue
            # Provisioned concurrency is retained by definition: the
            # admission gate below must never see a pinned container
            # (``pool.evict`` rightly refuses to terminate one).
            if container.pinned:
                continue
            # Admission gate: policies with a doorkeeper may refuse to
            # keep an unproven function's container warm at all.
            if self._policy_admits and not self.policy.should_retain(
                container, finish_s, self.pool
            ):
                if self._tracer is not None:
                    self._trace_evicted(container, finish_s, "admission")
                self.pool.evict(container)
                self.policy.on_evict(
                    container, finish_s, self.pool, pressure=False
                )
                self.metrics.expirations += 1
        # A deferred deflation (shrink below what busy containers held)
        # resumes as those containers idle: the pool re-walks its lazy
        # victim index and frees whatever it can. Cheap when no shrink
        # is pending (a single ``is None`` check).
        if self.pool.deflation_target_mb is not None:
            target = self.pool.deflation_target_mb
            victims = self.pool.resume_deflation(self._deflation_key_of(now_s))
            self._note_deflations(victims, now_s, target)

    def _expire_containers(self, now_s: float) -> None:
        for container, __ in self.policy.expired_containers(self.pool, now_s):
            if self._tracer is not None:
                self._trace_evicted(container, now_s, "expiry")
            self.pool.evict(container)
            self.policy.on_evict(container, now_s, self.pool, pressure=False)
            self.metrics.expirations += 1

    def _materialize_prewarms(self, now_s: float) -> None:
        for request in self.policy.due_prewarms(now_s):
            function = request.function
            # Skip if an idle container already exists or memory is
            # tight: prewarming never evicts real containers.
            if self.pool.idle_warm_container(function.name) is not None:
                continue
            if not self.pool.can_admit(function):
                continue
            container = Container(function, created_at_s=request.at_time_s)
            container.prewarmed = True
            self.pool.add(container)
            self.policy.on_prewarm(container, request, self.pool)
            self.metrics.prewarms += 1

    def _evict_for(self, function: TraceFunction, now_s: float) -> bool:
        """Free memory for a container of ``function``; False means the
        request drops. In non-shared tenant modes the deficit and the
        candidate set are tenant-aware (see
        :meth:`KeepAlivePolicy.select_victims_tenant`)."""
        needed_mb = function.memory_mb
        tracer = self._tracer
        if tracer is not None and needed_mb > self.pool.free_mb + 1e-9:
            tracer.emit(
                "pool_pressure",
                now_s,
                needed_mb=needed_mb,
                free_mb=self.pool.free_mb,
                evictable_mb=self.pool.evictable_mb(),
                used_mb=self.pool.used_mb,
                capacity_mb=self.pool.capacity_mb,
            )
        if self.pool.tenant_mode == "shared":
            victims = self.policy.select_victims(self.pool, needed_mb, now_s)
        else:
            victims = self.policy.select_victims_tenant(
                self.pool, needed_mb, now_s, function.tenant_id
            )
        if victims is None:
            return False
        for container in victims:
            if tracer is not None:
                self._trace_evicted(container, now_s, "pressure")
            self.pool.evict(container)
            self.policy.on_evict(container, now_s, self.pool, pressure=True)
            self.metrics.evictions += 1
        return True

    def _sample_memory(self, now_s: float) -> None:
        """Append a memory-timeline sample if one is due. Callers on
        the per-arrival path check ``_track_timeline`` first."""
        if not self._track_timeline:
            return
        if now_s - self._last_sample_s >= self._timeline_interval_s:
            self.metrics.memory_timeline.append((now_s, self.pool.used_mb))
            self._last_sample_s = now_s

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def process_invocation(self, function: TraceFunction, now_s: float) -> str:
        """Handle one arrival; returns 'warm', 'cold', 'dropped',
        'retried', or 'shed' (the last two only with a fault spec)."""
        if self._faults is not None:
            self._advance_faults(now_s)
        return self._attempt(function, now_s, attempt=0)

    def housekeeping(self, now_s: float) -> None:
        """Apply everything due by ``now_s`` that is not an arrival:
        release finished invocations back to the warm pool, expire
        containers past their policy deadline (draining the pool's
        incremental expiry heap), and materialize due prewarms.

        Every attempt runs this as its prologue; the live serving mode
        (docs/live-serving.md) also calls it from a periodic timer so
        expirations drain during idle stretches with no arrivals."""
        # Skip the release phase when nothing finishes by ``now_s``
        # and no deferred deflation waits for containers to idle.
        running = self._running
        if (
            running and running[0][0] <= now_s
        ) or self.pool.deflation_target_mb is not None:
            self._release_finished(now_s)
        if self._policy_expires and self.policy.next_expiry_s(self.pool) <= now_s:
            self._expire_containers(now_s)
        if self._policy_prewarms and self.policy.next_prewarm_s() <= now_s:
            self._materialize_prewarms(now_s)

    def _attempt(self, function: TraceFunction, now_s: float, attempt: int) -> str:
        """One attempt (first try or retry) at serving an invocation."""
        self.housekeeping(now_s)
        self.policy.on_invocation(function, now_s, self.pool)
        tracer = self._tracer
        # ``None`` on tenant-less runs: metrics skip per-tenant
        # bookkeeping and events carry no ``tenant`` field, keeping
        # legacy traces byte-identical.
        tenant_id = function.tenant_id if self._tenants_active else None
        if tracer is not None:
            tenant_extra = {} if tenant_id is None else {"tenant": tenant_id}
            if attempt == 0:
                tracer.emit(
                    "invocation_arrived",
                    now_s,
                    function=function.name,
                    **tenant_extra,
                )

        if self._down:
            # Routed to (or retried on) a failed server. With a fault
            # spec the retry policy gets a say; without one (cluster
            # layers driving fail_server externally) shed outright.
            if self._faults is not None:
                return self._handle_failure(
                    function, now_s, attempt, "unavailable"
                )
            return self._shed(function, now_s, attempt, "unavailable")

        faults = self._faults
        fault_kind = (
            faults.invocation_fault(function.name, now_s, attempt)
            if faults is not None
            else None
        )

        container = self.pool.idle_warm_container(function.name)
        if container is not None:
            duration = function.warm_time_s
            if container.prewarmed and container.invocation_count == 0:
                # First use of a prefetched container: without an
                # explicit init callback, part of the initialization
                # still runs now (Section 9).
                duration += (
                    (1.0 - self.prewarm_effectiveness) * function.init_time_s
                )
            if fault_kind is not None:
                return self._faulted_start(
                    container, function, now_s, attempt, fault_kind,
                    duration, cold=False,
                )
            container.start_invocation(now_s, duration)
            heapq.heappush(
                self._running,
                (container.busy_until_s, container.container_id, container),
            )
            self.policy.on_warm_start(container, now_s, self.pool)
            if tracer is not None:
                tracer.emit(
                    "warm_hit",
                    now_s,
                    function=function.name,
                    container_id=container.container_id,
                    duration_s=duration,
                    **tenant_extra,
                )
            if now_s >= self.warmup_s:
                self.metrics.record_warm(
                    function.name,
                    function.warm_time_s,
                    actual_time_s=duration,
                    tenant_id=tenant_id,
                )
            if self._track_timeline:
                self._sample_memory(now_s)
            return "warm"

        # A spawn failure strikes before any eviction work happens: the
        # sandbox never comes up, so no warm container is sacrificed.
        if faults is not None and faults.spawn_fails(
            function.name, now_s, attempt
        ):
            if tracer is not None:
                tracer.emit(
                    "fault_injected",
                    now_s,
                    function=function.name,
                    kind="spawn_failure",
                )
            if now_s >= self.warmup_s:
                self.metrics.record_fault("spawn_failure")
            return self._handle_failure(function, now_s, attempt, "retry_budget")

        if not self._evict_for(function, now_s):
            if faults is not None:
                # Graceful degradation: under a fault spec, memory
                # pressure feeds the same bounded retry/shed machinery
                # instead of the plain drop counter.
                return self._handle_failure(
                    function, now_s, attempt, "memory_pressure"
                )
            if tracer is not None:
                tracer.emit(
                    "dropped",
                    now_s,
                    function=function.name,
                    needed_mb=function.memory_mb,
                    **tenant_extra,
                )
            if now_s >= self.warmup_s:
                self.metrics.record_dropped(function.name, tenant_id=tenant_id)
            if self._track_timeline:
                self._sample_memory(now_s)
            return "dropped"

        container = Container(function, created_at_s=now_s)
        self.pool.add(container)
        if fault_kind is not None:
            return self._faulted_start(
                container, function, now_s, attempt, fault_kind,
                function.cold_time_s, cold=True,
            )
        container.start_invocation(now_s, function.cold_time_s)
        heapq.heappush(
            self._running,
            (container.busy_until_s, container.container_id, container),
        )
        self.policy.on_cold_start(container, now_s, self.pool)
        if tracer is not None:
            tracer.emit(
                "cold_start",
                now_s,
                function=function.name,
                container_id=container.container_id,
                duration_s=function.cold_time_s,
                **tenant_extra,
            )
        if now_s >= self.warmup_s:
            self.metrics.record_cold(
                function.name,
                function.warm_time_s,
                function.cold_time_s,
                tenant_id=tenant_id,
            )
        if self._track_timeline:
            self._sample_memory(now_s)
        return "cold"

    # ------------------------------------------------------------------
    # Fault injection & recovery
    # ------------------------------------------------------------------

    def _faulted_start(
        self,
        container: Container,
        function: TraceFunction,
        now_s: float,
        attempt: int,
        kind: str,
        duration_s: float,
        cold: bool,
    ) -> str:
        """An attempt that got a container but crashed or timed out.

        The container still occupies memory for the invocation's
        duration (the work ran, then failed); a crash additionally
        dooms it so it is torn down at completion instead of going
        warm. The attempt is *not* counted as warm/cold served — its
        terminal outcome is the eventual retry or shed.
        """
        container.start_invocation(now_s, duration_s)
        heapq.heappush(
            self._running,
            (container.busy_until_s, container.container_id, container),
        )
        # The policy still observes the usage: the container genuinely
        # ran, and policies must keep scoring it while it exists.
        if cold:
            self.policy.on_cold_start(container, now_s, self.pool)
        else:
            self.policy.on_warm_start(container, now_s, self.pool)
        if kind == "crash" and not container.pinned:
            container.doomed = True
        if self._tracer is not None:
            self._tracer.emit(
                "fault_injected", now_s, function=function.name, kind=kind
            )
        if now_s >= self.warmup_s:
            self.metrics.record_fault(kind)
        return self._handle_failure(function, now_s, attempt, "retry_budget")

    def _shed(
        self, function: TraceFunction, now_s: float, attempt: int, reason: str
    ) -> str:
        if self._tracer is not None:
            self._tracer.emit(
                "invocation_shed",
                now_s,
                function=function.name,
                reason=reason,
                attempts=attempt + 1,
            )
        if now_s >= self.warmup_s:
            self.metrics.record_shed(reason)
        self._sample_memory(now_s)
        return "shed"

    def _handle_failure(
        self,
        function: TraceFunction,
        now_s: float,
        attempt: int,
        shed_reason: str,
    ) -> str:
        """Route a failed attempt to the retry queue or shed it.

        ``shed_reason`` is used if the retry policy declines (budget or
        cap exhausted); a full retry queue overrides it with
        ``queue_full`` — the admission-controlled load shedding that
        replaces unbounded queueing.
        """
        assert self._fault_spec is not None and self._retry is not None
        if len(self._retry_heap) >= self._fault_spec.max_pending_retries:
            return self._shed(function, now_s, attempt, "queue_full")
        delay = self._retry.next_delay(function.name, attempt + 1, now_s)
        if delay is None:
            return self._shed(function, now_s, attempt, shed_reason)
        heapq.heappush(
            self._retry_heap,
            (now_s + delay, self._retry_seq, function.name, attempt + 1),
        )
        self._retry_seq += 1
        if self._tracer is not None:
            self._tracer.emit(
                "invocation_retried",
                now_s,
                function=function.name,
                attempt=attempt + 1,
                delay_s=delay,
            )
        if now_s >= self.warmup_s:
            self.metrics.record_retry()
        self._sample_memory(now_s)
        return "retried"

    def _advance_faults(self, now_s: float) -> None:
        """Apply every scheduled outage transition, capacity event, and
        due retry up to ``now_s``, in chronological order (interleaved,
        so a retry due while the server is down — or freshly shrunk —
        sees that state). At equal times: transitions, then capacity
        events, then retries."""
        heap = self._retry_heap
        transitions = self._transitions
        capacity = self._capacity_events
        functions = self.trace.functions
        while True:
            retry_due = heap[0][0] if heap else float("inf")
            trans_due = transitions[0][0] if transitions else float("inf")
            cap_due = capacity[0][0] if capacity else float("inf")
            if min(retry_due, trans_due, cap_due) > now_s:
                return
            if trans_due <= cap_due and trans_due <= retry_due:
                at_s, kind = transitions.popleft()
                if kind == "down":
                    self.fail_server(at_s)
                else:
                    self.recover_server(at_s)
            elif cap_due <= retry_due:
                at_s, kind, value = capacity.popleft()
                self._apply_capacity_event(at_s, kind, value)
            else:
                due_s, __, function_name, attempt = heapq.heappop(heap)
                self._attempt(functions[function_name], due_s, attempt)

    def fail_server(self, now_s: float) -> None:
        """Take this server down: its warm pool is lost and running
        invocations are doomed (their containers die at completion).
        Pinned containers survive — the platform re-establishes
        provisioned concurrency out of band. Idempotent while down.
        """
        if self._down:
            return
        self._down = True
        self._down_since = now_s
        if now_s >= self.warmup_s:
            self.metrics.server_downs += 1
        if self._tracer is not None:
            self._tracer.emit("server_down", now_s, server=self._server_index)
        self._release_finished(now_s)
        for container in self.pool.idle_containers():
            if self._tracer is not None:
                self._trace_evicted(container, now_s, "failure")
            self.pool.evict(container)
            self.policy.on_evict(container, now_s, self.pool, pressure=False)
        for container in self.pool.running_containers():
            if not container.pinned:
                container.doomed = True
        self._sample_memory(now_s)

    def recover_server(self, now_s: float) -> None:
        """Bring the server back (empty-cache restart). Idempotent."""
        if not self._down:
            return
        self._down = False
        downtime_s = max(0.0, now_s - self._down_since)
        if now_s >= self.warmup_s:
            self.metrics.downtime_s += downtime_s
        if self._tracer is not None:
            self._tracer.emit(
                "server_recovered",
                now_s,
                server=self._server_index,
                downtime_s=downtime_s,
            )

    @property
    def is_down(self) -> bool:
        """Whether the server is currently failed."""
        return self._down

    @property
    def outstanding(self) -> int:
        """Number of in-flight invocations (the server's queue depth,
        as seen by queue-aware balancers)."""
        return len(self._running)

    # ------------------------------------------------------------------
    # Harvested / spot capacity (docs/robustness.md)
    # ------------------------------------------------------------------

    def _apply_capacity_event(
        self, at_s: float, kind: str, value: float
    ) -> None:
        """Dispatch one scheduled capacity event (see
        :meth:`repro.faults.FaultModel.server_capacity_events`)."""
        if kind == "capacity":
            self.set_harvest_capacity(at_s, value)
        elif kind == "notice":
            self.notice_eviction(at_s, evict_at_s=value)
        elif kind == "evict":
            self.fail_server(at_s)
        else:  # "restore": a replacement server, cold and full-size
            self.recover_server(at_s)
            self.set_harvest_capacity(at_s, 1.0)

    def _deflation_key_of(self, now_s: float):
        """The policy's victim key, frozen at ``now_s``, for the
        pool's lazy victim index. Policies that select victims without
        a scalar priority fall back to LRU order (last-used, then id) —
        the same tie-break every scored key already carries."""
        policy = self.policy

        def key_of(container: Container) -> Tuple[float, float, int]:
            try:
                prio = policy.priority(container, now_s)
            except NotImplementedError:
                prio = 0.0
            return (prio, container.last_used_s, container.container_id)

        return key_of

    def _note_deflations(
        self, victims: List[Container], now_s: float, target_mb: float
    ) -> None:
        """Policy cleanup + observability for containers the pool just
        deflated away (they are already evicted)."""
        tracer = self._tracer
        for container in victims:
            self.policy.on_evict(container, now_s, self.pool, pressure=True)
            if tracer is not None:
                tracer.emit(
                    "container_deflated",
                    now_s,
                    function=container.function.name,
                    container_id=container.container_id,
                    memory_mb=container.memory_mb,
                    target_mb=target_mb,
                )
            if now_s >= self.warmup_s:
                self.metrics.deflations += 1
        if victims:
            self._sample_memory(now_s)

    def set_harvest_capacity(self, now_s: float, frac: float) -> None:
        """Resize this server to ``frac`` of its nominal capacity.

        The graceful path for time-varying (harvested) resources: a
        shrink evicts idle containers in the policy's victim order via
        :meth:`ContainerPool.deflate_to` and defers whatever busy
        containers still hold (freed as they finish —
        :meth:`_release_finished` resumes the deflation); growth
        applies immediately. Emits ``capacity_shrunk`` /
        ``capacity_grown`` and keeps the matching counters. Cluster
        layers may call this directly to drive harvest timelines
        centrally.
        """
        if frac <= 0.0:
            raise ValueError(f"capacity fraction must be > 0, got {frac}")
        target = frac * self._nominal_capacity_mb
        old = self.pool.capacity_mb
        victims = self.pool.deflate_to(target, self._deflation_key_of(now_s))
        self._note_deflations(victims, now_s, target)
        slack = 1e-9 * max(old, target)
        if target < old - slack:
            if now_s >= self.warmup_s:
                self.metrics.capacity_shrinks += 1
            if self._tracer is not None:
                self._tracer.emit(
                    "capacity_shrunk",
                    now_s,
                    server=self._server_index,
                    old_mb=old,
                    new_mb=target,
                    deferred_mb=self.pool.deflation_deferred_mb,
                )
        elif target > old + slack:
            if now_s >= self.warmup_s:
                self.metrics.capacity_grows += 1
            if self._tracer is not None:
                self._tracer.emit(
                    "capacity_grown",
                    now_s,
                    server=self._server_index,
                    old_mb=old,
                    new_mb=target,
                )

    def notice_eviction(self, now_s: float, evict_at_s: float) -> None:
        """Record a spot-eviction notice for this server.

        The server keeps serving until the eviction lands (the cluster
        layer stops routing *new* work here — see
        ``LoadBalancer.mark_draining``); the notice itself is pure
        observability plus a counter.
        """
        if now_s >= self.warmup_s:
            self.metrics.eviction_notices += 1
        if self._tracer is not None:
            self._tracer.emit(
                "eviction_notice",
                now_s,
                server=self._server_index,
                evict_at_s=evict_at_s,
                notice_s=max(0.0, evict_at_s - now_s),
            )

    def drain_retries(self) -> None:
        """Run every still-pending retry (and any outage transition
        that precedes it) past the end of the trace, so no failed
        attempt is left without a terminal outcome. Called by
        :meth:`run`; cluster drivers call it once arrivals stop."""
        if self._faults is None:
            return
        heap = self._retry_heap
        while heap:
            # Advancing to the next due time processes that retry (and
            # any outage transition before it); retries it schedules in
            # turn stay in the heap for the next iteration.
            self._advance_faults(heap[0][0])

    def run(self) -> SimulationResult:
        """Replay the whole trace and return the collected metrics.

        Besides the paper's counters this also records throughput
        observability: the wall-clock time of the replay and (derived)
        invocations simulated per second, so sweep harnesses can spot
        hot-path regressions per cell. When timeline tracking is on, a
        closing ``(trace_end, used_mb)`` sample is appended so the
        tail interval after the last periodic sample is weighted in
        :meth:`SimulationMetrics.mean_memory_mb` instead of silently
        dropped.
        """
        started = wall_clock_s()
        functions = self.trace.functions
        clock = self.clock
        end_s = 0.0
        for invocation in self.trace:
            # Timestamps flow through the SimClock (traces are sorted,
            # so advance_to/now round-trips each arrival time exactly —
            # byte-identical to passing invocation.time_s directly).
            clock.advance_to(invocation.time_s)
            end_s = clock.now()
            self.process_invocation(functions[invocation.function_name], end_s)
        return self.finalize(end_s, started)

    def finalize(self, end_s: float, started_wall_s: float) -> SimulationResult:
        """Post-replay epilogue shared by :meth:`run` and external
        arrival drivers (the columnar engine's chunked loop): drain
        pending retries, close the memory timeline, stamp the wall
        clock, run the sanitizer's trace/metrics counter-equality
        check, and package the result. ``end_s`` is the time of the
        last processed arrival (0.0 for an empty replay)."""
        # Give every pending retry a terminal outcome before reporting.
        self.drain_retries()
        if self._track_timeline and end_s > self._last_sample_s:
            self.metrics.memory_timeline.append((end_s, self.pool.used_mb))
            self._last_sample_s = end_s
        self.metrics.wall_time_s = wall_clock_s() - started_wall_s
        if self._sanitize_report is not None:
            # Sanitizer: counters rebuilt from the event stream must
            # equal the aggregate metrics (raises SanitizeError).
            check_counter_equality(
                self._sanitize_report.report, self.metrics.counters()
            )
            check_tenant_counter_equality(
                self._sanitize_report.report, self.metrics.tenant_counters()
            )
        return SimulationResult(
            trace_name=self.trace.name,
            policy_name=self.policy.name,
            memory_mb=self.pool.capacity_mb,
            metrics=self.metrics,
        )


def simulate(
    trace: Trace,
    policy: str | KeepAlivePolicy,
    memory_mb: float,
    track_memory_timeline: bool = False,
    timeline_interval_s: float = 60.0,
    prewarm_effectiveness: float = 1.0,
    reserved_concurrency: Optional[dict] = None,
    warmup_s: float = 0.0,
    tracer: Optional[Tracer] = None,
    fault_spec: Optional[FaultSpec] = None,
    engine: str = "object",
    tenant_mode: str = "shared",
    tenant_quotas: Optional[Dict[int, float]] = None,
    **policy_kwargs,
) -> SimulationResult:
    """Convenience one-shot simulation.

    ``policy`` may be a short policy name (``"GD"``, ``"TTL"``, ...) or
    an already-constructed policy instance. The simulator's own knobs
    (``timeline_interval_s``, ``prewarm_effectiveness``,
    ``reserved_concurrency``, ``warmup_s``, ``tracer``,
    ``fault_spec``) are forwarded to :class:`KeepAliveSimulator`
    explicitly; any remaining keyword arguments configure the *policy*
    and are therefore only valid with a policy name.

    ``engine`` selects the replay implementation: ``"object"`` (this
    module's per-invocation simulator) or ``"columnar"``
    (:class:`repro.sim.columnar.ColumnarReplayEngine`, batched and —
    for eligible TTL configurations — vectorized). The two produce
    byte-identical metrics; the differential suite holds them to it.

    >>> from repro.traces.synth import skewed_frequency_trace
    >>> result = simulate(skewed_frequency_trace(seed=1), "GD", 4096)
    >>> result.metrics.served > 0
    True
    """
    if isinstance(policy, str):
        policy = create_policy(policy, **policy_kwargs)
    elif policy_kwargs:
        raise ValueError("policy_kwargs are only valid with a policy name")
    if engine not in ("object", "columnar"):
        raise ValueError(
            f"engine must be 'object' or 'columnar', got {engine!r}"
        )
    if engine == "columnar":
        # Imported here: repro.sim.columnar imports this module.
        from repro.sim.columnar import ColumnarReplayEngine

        return ColumnarReplayEngine(
            policy,
            memory_mb,
            track_memory_timeline=track_memory_timeline,
            timeline_interval_s=timeline_interval_s,
            prewarm_effectiveness=prewarm_effectiveness,
            reserved_concurrency=reserved_concurrency,
            warmup_s=warmup_s,
            tracer=tracer,
            fault_spec=fault_spec,
            tenant_mode=tenant_mode,
            tenant_quotas=tenant_quotas,
        ).run(trace)
    simulator = KeepAliveSimulator(
        trace,
        policy,
        memory_mb,
        track_memory_timeline=track_memory_timeline,
        timeline_interval_s=timeline_interval_s,
        prewarm_effectiveness=prewarm_effectiveness,
        reserved_concurrency=reserved_concurrency,
        warmup_s=warmup_s,
        tracer=tracer,
        fault_spec=fault_spec,
        tenant_mode=tenant_mode,
        tenant_quotas=tenant_quotas,
    )
    return simulator.run()
