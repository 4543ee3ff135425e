"""A simulated OpenWhisk invoker (Section 7.2's evaluation substrate).

The paper evaluates FaasCache as a modified OpenWhisk invoker on a
real server. This module reproduces the invoker's request-handling
behaviour as a discrete-event model so the same comparison — vanilla
TTL OpenWhisk vs Greedy-Dual FaasCache — runs without the platform:

* Each request needs a **CPU slot** (the server has a fixed core
  count) and a **container** (warm hit, or a cold launch that must
  find pool memory).
* Cold launches pass through the Figure 1 phase pipeline and are
  limited by a **launch concurrency** bound (the Docker daemon
  serializes container creation), so cold-start storms back up.
* Requests that cannot be served immediately are **buffered FIFO**;
  buffered requests time out and are **dropped** — OpenWhisk "buffers
  and eventually drops requests if it cannot fulfill them".

The feedback loop the paper observes emerges naturally: cold starts
hold CPU and memory for seconds instead of milliseconds, which backs
up the queue, which causes timeouts and drops; a keep-alive policy
with a better hit rate serves strictly more requests in the same time
frame (Figures 7 and 8).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.function import FunctionStatsTable
from repro.core.policies.base import KeepAlivePolicy, create_policy
from repro.openwhisk.containerpool import InvokerContainerPool
from repro.openwhisk.latency import ColdStartModel
from repro.sim.events import EventQueue
from repro.sim.metrics import FunctionOutcome
from repro.traces.model import Trace, TraceFunction

__all__ = ["InvokerConfig", "RequestRecord", "InvokerResult", "SimulatedInvoker"]


@dataclass(frozen=True)
class InvokerConfig:
    """Resources and limits of one simulated invoker."""

    #: ContainerPool user-memory (the keep-alive cache size). OpenWhisk
    #: reserves most of a server's physical RAM for the system; the
    #: pool's usable share is this configured value.
    memory_mb: float = 8192.0
    cpu_cores: int = 48
    #: Buffered-request capacity before immediate drops.
    queue_capacity: int = 512
    #: Buffered requests older than this are dropped.
    request_timeout_s: float = 30.0
    #: Concurrent container launches (Docker daemon parallelism).
    max_concurrent_launches: int = 4
    #: Batched-eviction free threshold (0 disables batching).
    free_threshold_mb: float = 0.0
    #: Slow-path stall of entering an eviction round (pool sort plus
    #: Docker round trip) — charged to the triggering cold start.
    eviction_event_latency_s: float = 0.5
    #: Docker removal time per evicted container.
    eviction_per_container_s: float = 0.25
    #: kswapd-style background reclaim toward the free threshold,
    #: keeping eviction off the invocation critical path (the
    #: Section 6 future-work design). Requires free_threshold_mb > 0.
    async_reclaim: bool = False
    #: Generic pre-created ("stem cell") containers, as real OpenWhisk
    #: maintains per runtime and as the warm-pool line of work
    #: [Lin & Glikson, the paper's ref 41] formalizes. A cold start
    #: that grabs a stem skips the Docker-creation phase (the stem is
    #: specialized in place); the stem is replenished in the
    #: background. Stems occupy ``stem_cell_mb`` each.
    stem_cell_count: int = 0
    stem_cell_mb: float = 256.0

    def __post_init__(self) -> None:
        if self.memory_mb <= 0:
            raise ValueError("memory must be positive")
        if self.cpu_cores <= 0:
            raise ValueError("cpu cores must be positive")
        if self.queue_capacity < 0:
            raise ValueError("queue capacity must be non-negative")
        if self.request_timeout_s <= 0:
            raise ValueError("request timeout must be positive")
        if self.max_concurrent_launches <= 0:
            raise ValueError("launch concurrency must be positive")
        if self.stem_cell_count < 0 or self.stem_cell_mb <= 0:
            raise ValueError("invalid stem-cell configuration")
        if self.stem_cell_count * self.stem_cell_mb >= self.memory_mb:
            raise ValueError("stem cells would consume the whole pool")


@dataclass
class RequestRecord:
    """One request's journey through the invoker."""

    function_name: str
    arrival_s: float
    start_s: Optional[float] = None
    completion_s: Optional[float] = None
    outcome: str = "pending"  # hit | miss | dropped

    @property
    def latency_s(self) -> Optional[float]:
        """Application-visible latency: arrival to completion."""
        if self.completion_s is None:
            return None
        return self.completion_s - self.arrival_s

    @property
    def queue_wait_s(self) -> Optional[float]:
        """Time buffered before service began (0 if served at once)."""
        if self.start_s is None:
            return None
        return self.start_s - self.arrival_s

    @property
    def service_s(self) -> Optional[float]:
        """Time from service start to completion (cold or warm path)."""
        if self.completion_s is None or self.start_s is None:
            return None
        return self.completion_s - self.start_s


@dataclass
class InvokerResult:
    """Aggregated outcome of one load test."""

    policy_name: str
    records: List[RequestRecord] = field(default_factory=list)

    @property
    def warm_starts(self) -> int:
        return sum(1 for r in self.records if r.outcome == "hit")

    @property
    def cold_starts(self) -> int:
        return sum(1 for r in self.records if r.outcome == "miss")

    @property
    def dropped(self) -> int:
        return sum(1 for r in self.records if r.outcome == "dropped")

    @property
    def served(self) -> int:
        return self.warm_starts + self.cold_starts

    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def hit_ratio(self) -> float:
        return self.warm_starts / self.served if self.served else 0.0

    def per_function(self) -> Dict[str, FunctionOutcome]:
        outcomes: Dict[str, FunctionOutcome] = {}
        for record in self.records:
            outcome = outcomes.setdefault(record.function_name, FunctionOutcome())
            if record.outcome == "hit":
                outcome.warm_starts += 1
            elif record.outcome == "miss":
                outcome.cold_starts += 1
            else:
                outcome.dropped += 1
        return outcomes

    def latencies_s(self, function_name: Optional[str] = None) -> List[float]:
        return [
            r.latency_s
            for r in self.records
            if r.latency_s is not None
            and (function_name is None or r.function_name == function_name)
        ]

    def mean_latency_s(self, function_name: Optional[str] = None) -> float:
        latencies = self.latencies_s(function_name)
        return sum(latencies) / len(latencies) if latencies else 0.0

    def percentile_latency_s(
        self, q: float, function_name: Optional[str] = None
    ) -> float:
        """Nearest-rank latency percentile (e.g. ``q=99`` for p99)."""
        from repro.analysis.stats import percentile

        latencies = self.latencies_s(function_name)
        if not latencies:
            return 0.0
        return percentile(latencies, q)

    def mean_queue_wait_s(self) -> float:
        """Mean buffering delay over served requests — the congestion
        component of latency, separate from cold-start service time."""
        waits = [
            r.queue_wait_s
            for r in self.records
            if r.queue_wait_s is not None and r.completion_s is not None
        ]
        return sum(waits) / len(waits) if waits else 0.0

    def function_hit_ratio(self, function_name: str) -> float:
        outcome = self.per_function().get(function_name)
        return outcome.hit_ratio if outcome else 0.0


class _Event:
    """Invoker event kinds (payloads for the shared EventQueue)."""

    ARRIVAL = "arrival"
    COMPLETE = "complete"
    LAUNCH_DONE = "launch_done"
    STEM_READY = "stem_ready"
    CONTROL_TICK = "control_tick"


class SimulatedInvoker:
    """Discrete-event model of one OpenWhisk(-like) invoker."""

    def __init__(
        self,
        config: InvokerConfig,
        policy: str | KeepAlivePolicy = "TTL",
        cold_start_model: Optional[ColdStartModel] = None,
        controller=None,
        deflation_engine=None,
    ) -> None:
        """``controller`` (a
        :class:`~repro.provisioning.controller.ProportionalController`)
        attaches the Figure 4 provisioning loop to this invoker: every
        control period the observed arrival and cold-start counts feed
        the controller, and its size decision is actuated on the
        container pool via ``deflation_engine`` (cascade deflation by
        default). Without a controller the pool size is static."""
        if isinstance(policy, str):
            policy = create_policy(policy)
        self.config = config
        self.policy = policy
        self.latency_model = cold_start_model or ColdStartModel()
        self.controller = controller
        if controller is not None and deflation_engine is None:
            from repro.provisioning.deflation import DeflationEngine

            deflation_engine = DeflationEngine()
        self.deflation_engine = deflation_engine
        self.deflations = []
        self._period_arrivals = 0
        self._period_colds = 0
        self.stats = FunctionStatsTable()
        # Stem cells reserve their memory off the top of the pool.
        pool_memory = config.memory_mb - (
            config.stem_cell_count * config.stem_cell_mb
        )
        self.pool = InvokerContainerPool(
            capacity_mb=pool_memory,
            policy=policy,
            free_threshold_mb=config.free_threshold_mb,
            stats=self.stats,
            eviction_event_latency_s=config.eviction_event_latency_s,
            eviction_per_container_s=config.eviction_per_container_s,
            async_reclaim=config.async_reclaim,
        )
        self._stems_available = config.stem_cell_count
        self.stem_hits = 0
        self._events: EventQueue = EventQueue()
        self._queue: Deque[RequestRecord] = deque()
        self._running = 0
        self._launches = 0
        self._result = InvokerResult(policy_name=policy.name)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def _try_serve(
        self, record: RequestRecord, function: TraceFunction, now_s: float
    ) -> bool:
        if self._running >= self.config.cpu_cores:
            return False
        container = self.pool.pool.idle_warm_container(function.name)
        kind = "hit"
        if container is None:
            if self._launches >= self.config.max_concurrent_launches:
                return False
            container, kind = self.pool.acquire(function, now_s)
            if container is None:
                return False
        if kind == "hit":
            duration = self.latency_model.warm_duration_s(function)
        else:
            eviction_stall = self.pool.take_eviction_latency()
            duration = self.latency_model.cold_duration_s(function) + eviction_stall
            launch = self.latency_model.launch_duration_s(function) + eviction_stall
            if self._stems_available > 0:
                # Specialize a pre-created stem: the Docker-creation
                # phase is already done; schedule its replacement.
                self._stems_available -= 1
                self.stem_hits += 1
                duration -= self.latency_model.docker_startup_s
                launch -= self.latency_model.docker_startup_s
                self._events.push(
                    now_s + self.latency_model.docker_startup_s,
                    (_Event.STEM_READY, None),
                )
            self._launches += 1
            self._events.push(now_s + launch, (_Event.LAUNCH_DONE, None))
        container.start_invocation(now_s, duration)
        self.pool.notify_start(container, kind, now_s)
        self._running += 1
        if kind == "miss":
            self._period_colds += 1
        record.start_s = now_s
        record.outcome = kind
        self._events.push(
            now_s + duration, (_Event.COMPLETE, (container, record, kind))
        )
        return True

    def _drain_queue(self, now_s: float, functions: Dict[str, TraceFunction]) -> None:
        # Time out stale entries anywhere in the buffer.
        deadline = now_s - self.config.request_timeout_s
        if self._queue and self._queue[0].arrival_s < deadline:
            survivors: Deque[RequestRecord] = deque()
            for record in self._queue:
                if record.arrival_s < deadline:
                    record.outcome = "dropped"
                else:
                    survivors.append(record)
            self._queue = survivors
        # Serve in arrival order, but skip requests that cannot be
        # served yet (OpenWhisk buffers per action: a large function
        # waiting for memory does not block other functions).
        if not self._queue:
            return
        blocked: Deque[RequestRecord] = deque()
        progress = True
        while progress:
            progress = False
            while self._queue:
                head = self._queue.popleft()
                if self._try_serve(head, functions[head.function_name], now_s):
                    progress = True
                else:
                    blocked.append(head)
            # Serving may have freed memory (batched eviction) that
            # unblocks earlier-skipped requests; retry them in order.
            self._queue, blocked = blocked, self._queue
            if self._running >= self.config.cpu_cores:
                break
        # Anything left stays buffered in arrival order.

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------

    def _handle_arrival(
        self,
        now_s: float,
        record: RequestRecord,
        functions: Dict[str, TraceFunction],
    ) -> None:
        function = functions[record.function_name]
        self._period_arrivals += 1
        self.pool.expire(now_s)
        self.pool.maintain(now_s)
        self.pool.record_arrival(function, now_s)
        # Older buffered requests get the first shot at freed
        # resources; whatever the drain leaves is currently blocked,
        # so serving this arrival next is fair and avoids a blocked
        # large function head-of-line-blocking it.
        self._drain_queue(now_s, functions)
        if self._try_serve(record, function, now_s):
            return
        if len(self._queue) >= self.config.queue_capacity:
            record.outcome = "dropped"
        else:
            self._queue.append(record)

    def _handle_complete(
        self,
        now_s: float,
        payload: Tuple,
        functions: Dict[str, TraceFunction],
    ) -> None:
        container, record, kind = payload
        record.completion_s = now_s
        elapsed = now_s - record.start_s
        self.pool.release(container, now_s, kind, elapsed)
        self._running -= 1
        self.pool.expire(now_s)
        self.pool.maintain(now_s)
        self._drain_queue(now_s, functions)

    def _handle_control_tick(
        self, now_s: float, functions: Dict[str, TraceFunction]
    ) -> None:
        """One Figure 4 provisioning period: observe, decide, deflate."""
        decision = self.controller.step(
            now_s, self._period_arrivals, self._period_colds
        )
        self._period_arrivals = 0
        self._period_colds = 0
        if decision.resized:
            report = self.deflation_engine.resize(
                self.pool.pool,
                self.policy,
                self.controller.cache_size_mb,
                now_s,
            )
            self.controller.cache_size_mb = report.achieved_mb
            self.deflations.append(report)
            self._drain_queue(now_s, functions)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self, trace: Trace) -> InvokerResult:
        """Replay ``trace`` through the invoker and return the result."""
        functions = trace.functions
        for invocation in trace:
            record = RequestRecord(
                function_name=invocation.function_name,
                arrival_s=invocation.time_s,
            )
            self._result.records.append(record)
            self._events.push(invocation.time_s, (_Event.ARRIVAL, record))
        if self.controller is not None and len(trace):
            period = self.controller.control_period_s
            span = trace.invocations[-1].time_s
            tick = period
            while tick <= span + period:
                self._events.push(tick, (_Event.CONTROL_TICK, None))
                tick += period

        while self._events:
            now_s, (kind, payload) = self._events.pop()
            if kind == _Event.ARRIVAL:
                self._handle_arrival(now_s, payload, functions)
            elif kind == _Event.COMPLETE:
                self._handle_complete(now_s, payload, functions)
            elif kind == _Event.CONTROL_TICK:
                self._handle_control_tick(now_s, functions)
            elif kind == _Event.STEM_READY:
                self._stems_available = min(
                    self._stems_available + 1, self.config.stem_cell_count
                )
                self._drain_queue(now_s, functions)
            else:  # LAUNCH_DONE
                self._launches -= 1
                self._drain_queue(now_s, functions)

        # Anything still buffered after the last event would time out.
        for record in self._queue:
            record.outcome = "dropped"
        self._queue.clear()
        return self._result
