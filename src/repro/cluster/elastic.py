"""Elastic (horizontal) cluster scaling with keep-alive awareness.

The paper's introduction credits FaaS with "near-infinite horizontal
scaling"; its Section 5 scales one server vertically and leaves the
cluster dimension to classical techniques. This module composes the
two: a cluster of keep-alive servers whose *count* follows the load
(AutoScale-style reactive scaling with a scale-down hold, via
:class:`~repro.provisioning.cpu_autoscale.ReactiveCpuScaler`), routed
by consistent hashing so that scaling events disturb as little
function-to-server affinity as possible.

Keep-alive interaction, which is the interesting part: decommissioning
a server discards its warm containers, so every scale-down buys
efficiency at the price of a cold-start burst when its functions
re-hash — the cluster-level version of the paper's
latency-vs-utilization tradeoff.
"""

from __future__ import annotations

import hashlib
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.cluster.simulation import _server_level_spec
from repro.core.policies.base import create_policy
from repro.faults import FaultModel, FaultSpec
from repro.obs.events import COUNTER_NAMES
from repro.obs.tracer import Tracer, active_tracer
from repro.provisioning.cpu_autoscale import ReactiveCpuScaler
from repro.sim.metrics import SimulationMetrics
from repro.sim.scheduler import KeepAliveSimulator
from repro.traces.model import Trace

__all__ = ["ElasticClusterResult", "ElasticClusterSimulation"]


@dataclass
class ElasticClusterResult:
    """Aggregate outcome plus the scaling timeline.

    Carries one field per lifecycle counter
    (:data:`~repro.obs.events.LIFECYCLE_COUNTERS`), summed over every
    server that ever ran.
    """

    warm_starts: int = 0
    cold_starts: int = 0
    dropped: int = 0
    evictions: int = 0
    expirations: int = 0
    prewarms: int = 0
    #: (time, active server count) at each control period.
    server_timeline: List[Tuple[float, int]] = field(default_factory=list)
    #: Integral of active servers over time, in server-seconds.
    server_seconds: float = 0.0
    scale_ups: int = 0
    scale_downs: int = 0
    # -- fault injection / recovery ----------------------------------
    faults_injected: int = 0
    retries: int = 0
    #: Per-server sheds (budget/queue/pressure) folded from members.
    sheds: int = 0
    #: Whole-server failures applied across the ring.
    server_downs: int = 0
    #: Invocations shed at the cluster level: every active ring
    #: position was failed when they arrived.
    shed_unavailable: int = 0
    # -- harvested / spot capacity ------------------------------------
    #: Harvest shrink/grow steps applied across members.
    capacity_shrinks: int = 0
    capacity_grows: int = 0
    #: Spot eviction notices received (pre-drain started).
    eviction_notices: int = 0
    #: Containers gracefully deflated away by harvest shrinks.
    deflations: int = 0
    #: Cold replacement servers spun up after spot evictions.
    replacements: int = 0

    @property
    def served(self) -> int:
        return self.warm_starts + self.cold_starts

    @property
    def cold_start_pct(self) -> float:
        return 100.0 * self.cold_starts / self.served if self.served else 0.0

    @property
    def mean_servers(self) -> float:
        if not self.server_timeline:
            return 0.0
        return sum(n for __, n in self.server_timeline) / len(
            self.server_timeline
        )


class ElasticClusterSimulation:
    """Replay a trace on a cluster whose size tracks the load."""

    def __init__(
        self,
        trace: Trace,
        server_memory_mb: float = 8192.0,
        policy: str = "GD",
        min_servers: int = 1,
        max_servers: int = 16,
        requests_per_server_per_s: float = 50.0,
        target_utilization: float = 0.7,
        control_period_s: float = 600.0,
        scale_down_hold_s: float = 1200.0,
        seed: int = 0,
        tracer: Optional[Tracer] = None,
        fault_spec: Optional[FaultSpec] = None,
    ) -> None:
        if requests_per_server_per_s <= 0:
            raise ValueError("per-server request capacity must be positive")
        if not 1 <= min_servers <= max_servers:
            raise ValueError("need 1 <= min_servers <= max_servers")
        self.trace = trace
        self.server_memory_mb = server_memory_mb
        self.policy_name = policy.upper()
        self.min_servers = min_servers
        self.max_servers = max_servers
        self.requests_per_server_per_s = requests_per_server_per_s
        self.control_period_s = control_period_s
        self._seed = seed
        self._tracer = active_tracer(tracer)
        # One "core" in the scaler = one server; offered load is the
        # arrival rate over the per-server request capacity.
        self._scaler = ReactiveCpuScaler(
            target_utilization=target_utilization,
            min_cores=min_servers,
            max_cores=max_servers,
            scale_down_hold_s=scale_down_hold_s,
            initial_cores=min_servers,
        )
        # Whole-server outages are driven at this level over the fixed
        # ring positions; member simulators only see invocation-level
        # faults (see repro.cluster.simulation._server_level_spec).
        self._fault_spec = (
            fault_spec if fault_spec is not None and fault_spec.enabled
            else None
        )
        self._server_spec = _server_level_spec(self._fault_spec)
        self._outages: Deque[Tuple[float, int, str]] = deque()
        # Harvest/spot capacity events over the same ring positions:
        # (time_s, ring index, kind, value).
        self._capacity: Deque[Tuple[float, int, str, float]] = deque()
        if self._fault_spec is not None:
            model = FaultModel(self._fault_spec)
            self._outages = deque(
                model.server_schedule(max_servers, trace.duration_s)
            )
            self._capacity = deque(
                model.capacity_schedule(max_servers, trace.duration_s)
            )
        # Ring positions currently failed; routing and scale-up skip
        # them until the scheduled recovery.
        self._failed: Set[int] = set()
        # Ring positions under a spot eviction notice: excluded from
        # new placements (and from scale-up) while their server
        # finishes its in-flight work.
        self._draining: Set[int] = set()
        # Slot i holds the simulator of ring position i, or None when
        # the position is inactive.
        self._servers: List[Optional[KeepAliveSimulator]] = [
            None
        ] * max_servers
        for i in range(min_servers):
            self._servers[i] = self._new_server(i)
        self._active = min_servers

    def _new_server(self, ring_index: int) -> KeepAliveSimulator:
        return KeepAliveSimulator(
            self.trace,
            create_policy(self.policy_name),
            self.server_memory_mb,
            tracer=(
                self._tracer.bind(server=ring_index)
                if self._tracer is not None
                else None
            ),
            fault_spec=self._server_spec,
            server_index=ring_index,
        )

    # ------------------------------------------------------------------
    # Routing: consistent hashing over the fixed ring of positions,
    # walking forward to the next active position.
    # ------------------------------------------------------------------

    def _ring_start(self, function_name: str) -> int:
        digest = hashlib.blake2b(
            function_name.encode("utf-8"),
            digest_size=8,
            salt=self._seed.to_bytes(8, "little"),
        ).digest()
        return int.from_bytes(digest, "little") % self.max_servers

    def _route(self, function_name: str) -> Optional[KeepAliveSimulator]:
        """The next active, healthy, non-draining server on the ring,
        or ``None`` when every active position is currently failed or
        draining (the caller sheds the invocation as
        ``unavailable``)."""
        start = self._ring_start(function_name)
        for offset in range(self.max_servers):
            index = (start + offset) % self.max_servers
            server = self._servers[index]
            if (
                server is not None
                and index not in self._failed
                and index not in self._draining
            ):
                return server
        return None

    # ------------------------------------------------------------------
    # Scaling actuation
    # ------------------------------------------------------------------

    def _apply_scaling(self, desired: int, result: ElasticClusterResult) -> None:
        while self._active < desired:
            # New capacity never lands on a failed or draining (about
            # to be evicted) ring position.
            candidates = [
                i
                for i, s in enumerate(self._servers)
                if s is None
                and i not in self._failed
                and i not in self._draining
            ]
            if not candidates:
                break
            index = candidates[0]
            self._servers[index] = self._new_server(index)
            self._active += 1
            result.scale_ups += 1
        while self._active > desired and self._active > self.min_servers:
            # Decommission the highest-index active server; its warm
            # containers are lost (running ones finish off-record).
            index = max(
                i for i, s in enumerate(self._servers) if s is not None
            )
            retired = self._servers[index]
            self._servers[index] = None
            self._active -= 1
            result.scale_downs += 1
            retired.drain_retries()
            self._fold_metrics(retired.metrics, result)

    def _apply_outages(self, now_s: float, result: ElasticClusterResult) -> None:
        """Fail/recover ring positions per the outage schedule, and
        apply harvest/spot capacity events, chronologically merged (at
        equal times outage transitions win, matching the lower
        layers)."""
        outages = self._outages
        capacity = self._capacity
        while True:
            out_due = outages[0][0] if outages else float("inf")
            cap_due = capacity[0][0] if capacity else float("inf")
            if min(out_due, cap_due) > now_s:
                return
            if out_due <= cap_due:
                at_s, index, kind = outages.popleft()
                server = self._servers[index]
                if kind == "down":
                    self._failed.add(index)
                    if server is not None:
                        server.fail_server(at_s)
                else:
                    self._failed.discard(index)
                    if server is not None:
                        server.recover_server(at_s)
            else:
                at_s, index, kind, value = capacity.popleft()
                self._apply_capacity_event(at_s, index, kind, value, result)

    def _apply_capacity_event(
        self,
        at_s: float,
        index: int,
        kind: str,
        value: float,
        result: ElasticClusterResult,
    ) -> None:
        """One harvest/spot event against a ring position.

        Unlike the fixed-size cluster, an elastic ring treats a spot
        eviction as *permanent loss of that instance*: the server is
        decommissioned (metrics folded, warm state gone) and a cold
        **replacement** spins up on the lowest free healthy ring
        position immediately, so harvested churn does not silently
        shrink the fleet below what the autoscaler asked for. The
        later "restore" merely frees the ring position for future
        scale-ups.
        """
        server = self._servers[index]
        if kind == "capacity":
            if server is not None and index not in self._failed:
                server.set_harvest_capacity(at_s, value)
        elif kind == "notice":
            # Pre-drain: stop routing new work at this position; the
            # server keeps finishing its own in-flight invocations
            # until the eviction lands.
            self._draining.add(index)
            if server is not None and index not in self._failed:
                server.notice_eviction(at_s, evict_at_s=value)
        elif kind == "evict":
            self._draining.discard(index)
            self._failed.add(index)
            if server is not None:
                # The instance is gone: doom in-flight work, settle
                # retries, fold what it measured, release the slot.
                server.fail_server(at_s)
                server.drain_retries()
                self._fold_metrics(server.metrics, result)
                self._servers[index] = None
                self._active -= 1
                self._spin_replacement(at_s, result)
        else:  # "restore": the position is usable again, nothing more —
            # the replacement already took over the capacity.
            self._failed.discard(index)
            self._draining.discard(index)

    def _spin_replacement(
        self, at_s: float, result: ElasticClusterResult
    ) -> None:
        """Cold replacement for an evicted spot instance, on the lowest
        free healthy ring position (no-op when the ring is full)."""
        for i, slot in enumerate(self._servers):
            if (
                slot is None
                and i not in self._failed
                and i not in self._draining
            ):
                self._servers[i] = self._new_server(i)
                self._active += 1
                result.replacements += 1
                return

    @staticmethod
    def _fold_metrics(
        metrics: SimulationMetrics, result: ElasticClusterResult
    ) -> None:
        for name in COUNTER_NAMES:
            total = getattr(result, name) + getattr(metrics, name)
            setattr(result, name, total)

    # ------------------------------------------------------------------

    def run(self) -> ElasticClusterResult:
        result = ElasticClusterResult()
        functions = self.trace.functions
        period = self.control_period_s
        next_tick = period
        arrivals_in_period = 0
        result.server_timeline.append((0.0, self._active))
        for invocation in self.trace:
            while invocation.time_s >= next_tick:
                rate = arrivals_in_period / period
                decision = self._scaler.step(
                    next_tick,
                    arrival_rate=rate / self.requests_per_server_per_s,
                    mean_service_time_s=1.0,
                )
                if self._tracer is not None:
                    self._tracer.emit(
                        "autoscale_decision",
                        next_tick,
                        desired_servers=decision.cores,
                        active_servers=self._active,
                        arrival_rate=rate,
                    )
                self._apply_scaling(decision.cores, result)
                result.server_timeline.append((next_tick, self._active))
                result.server_seconds += self._active * period
                arrivals_in_period = 0
                next_tick += period
            arrivals_in_period += 1
            if self._outages or self._capacity:
                self._apply_outages(invocation.time_s, result)
            server = self._route(invocation.function_name)
            if server is None:
                # Every active ring position is down right now.
                result.shed_unavailable += 1
                if self._tracer is not None:
                    self._tracer.emit(
                        "invocation_shed",
                        invocation.time_s,
                        function=invocation.function_name,
                        reason="unavailable",
                        attempts=1,
                    )
                continue
            server.process_invocation(
                functions[invocation.function_name], invocation.time_s
            )
        # Fold the still-active servers' metrics.
        for server in self._servers:
            if server is not None:
                server.drain_retries()
                self._fold_metrics(server.metrics, result)
        return result
