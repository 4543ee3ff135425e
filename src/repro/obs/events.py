"""The structured-event vocabulary of the tracing subsystem.

Every event is a flat JSON-serializable dict with two mandatory
fields — ``event`` (the type name) and ``time_s`` (simulation time) —
plus the type-specific payload listed in :data:`EVENT_SCHEMAS`.
Emitters may attach extra context fields (``policy``, ``server``,
``memory_gb`` — anything bound via :meth:`repro.obs.Tracer.bind`);
consumers must therefore tolerate unknown keys, exactly like a
Prometheus label set or an OpenTelemetry attribute bag.

The vocabulary covers the container lifecycle the paper reasons about
(Sections 4-6) end to end:

``invocation_arrived``
    An invocation reached the scheduler, before hit/miss is known.
``warm_hit``
    A warm idle container was reused (cache hit).
``cold_start``
    A new container had to be created (cache miss).
``container_spawned``
    The pool admitted a container — cold start, prewarm, or pinned
    provisioned concurrency (distinguished by the flags).
``evicted``
    A container was terminated, with the policy that chose it, the
    priority it was evicted at, and the memory freed. ``reason`` is
    ``pressure`` (victim selection), ``expiry`` (time-based TTL/HIST
    expiration), or ``admission`` (a doorkeeper refusing to retain).
``dropped``
    An invocation could not obtain memory and was rejected.
``pool_pressure``
    Victim selection was required: the free memory at that instant,
    what was needed, and what was reclaimable.
``autoscale_decision``
    A cluster scaling controller chose a server count.
``invocation_routed``
    A cluster load balancer assigned an invocation to a server.

Five further types cover the fault-injection/recovery layer
(:mod:`repro.faults`):

``fault_injected``
    The fault model fired on one attempt; ``kind`` is one of
    :data:`FAULT_KINDS` (``spawn_failure``, ``crash``, ``timeout``).
``invocation_retried``
    A failed attempt was scheduled to run again after a backoff
    delay (``attempt`` is the 1-based retry number).
``invocation_shed``
    A failed attempt was given up on; ``reason`` is one of
    :data:`SHED_REASONS` — the retry budget ran out, the bounded
    retry queue was full, memory pressure, or no server available.
``server_down`` / ``server_recovered``
    A whole server failed (losing its warm containers) or came back.

Four further types cover harvested/spot capacity
(docs/robustness.md — the cache itself shrinking and growing):

``capacity_shrunk``
    A harvest step reduced a server's usable memory; ``deferred_mb``
    is the part still held by busy containers (freed as they finish).
``capacity_grown``
    Usable memory was given back (or a replacement server came up).
``eviction_notice``
    A spot eviction was announced ``notice_s`` ahead of ``evict_at_s``;
    the control plane stops routing new work to the server.
``container_deflated``
    A warm container was evicted to meet a shrinking capacity target
    (distinct from ``evicted``: pressure came from the platform, not
    from the workload, so it is counted separately).
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, NamedTuple, Optional, Tuple

__all__ = [
    "COUNTER_NAMES",
    "EVENT_SCHEMAS",
    "EVENT_TYPES",
    "EVICTION_REASONS",
    "FAULT_KINDS",
    "LIFECYCLE_COUNTERS",
    "LifecycleCounter",
    "SHED_REASONS",
    "SchemaError",
    "TENANT_COUNTER_NAMES",
    "ZERO_DROPPED_COUNTERS",
    "validate_event",
]

#: Field type specs. ``float`` accepts ints too (JSON round-trips do
#: not preserve the distinction); ``None`` in a tuple marks the field
#: as nullable.
_NUMBER = (int, float)

#: Required payload fields per event type (beyond ``event``/``time_s``).
EVENT_SCHEMAS: Dict[str, Dict[str, tuple]] = {
    "invocation_arrived": {
        "function": (str,),
    },
    "warm_hit": {
        "function": (str,),
        "container_id": (int,),
        "duration_s": _NUMBER,
    },
    "cold_start": {
        "function": (str,),
        "container_id": (int,),
        "duration_s": _NUMBER,
    },
    "container_spawned": {
        "function": (str,),
        "container_id": (int,),
        "memory_mb": _NUMBER,
        "pinned": (bool,),
        "prewarmed": (bool,),
    },
    "evicted": {
        "function": (str,),
        "container_id": (int,),
        "policy": (str,),
        "reason": (str,),
        "freed_mb": _NUMBER,
        "priority": _NUMBER + (type(None),),
        "idle_s": _NUMBER,
        "age_s": _NUMBER,
    },
    "dropped": {
        "function": (str,),
        "needed_mb": _NUMBER,
    },
    "pool_pressure": {
        "needed_mb": _NUMBER,
        "free_mb": _NUMBER,
        "evictable_mb": _NUMBER,
        "used_mb": _NUMBER,
        "capacity_mb": _NUMBER,
    },
    "autoscale_decision": {
        "desired_servers": (int,),
        "active_servers": (int,),
        "arrival_rate": _NUMBER,
    },
    "invocation_routed": {
        "function": (str,),
        "server": (int,),
        "balancer": (str,),
    },
    "fault_injected": {
        "function": (str,),
        "kind": (str,),
    },
    "invocation_retried": {
        "function": (str,),
        "attempt": (int,),
        "delay_s": _NUMBER,
    },
    "invocation_shed": {
        "function": (str,),
        "reason": (str,),
        "attempts": (int,),
    },
    "server_down": {
        "server": (int,),
    },
    "server_recovered": {
        "server": (int,),
        "downtime_s": _NUMBER,
    },
    "capacity_shrunk": {
        "server": (int,),
        "old_mb": _NUMBER,
        "new_mb": _NUMBER,
        "deferred_mb": _NUMBER,
    },
    "capacity_grown": {
        "server": (int,),
        "old_mb": _NUMBER,
        "new_mb": _NUMBER,
    },
    "eviction_notice": {
        "server": (int,),
        "evict_at_s": _NUMBER,
        "notice_s": _NUMBER,
    },
    "container_deflated": {
        "function": (str,),
        "container_id": (int,),
        "memory_mb": _NUMBER,
        "target_mb": _NUMBER,
    },
}

#: Valid eviction reasons for the ``evicted`` event. ``failure``
#: (container lost to a crash or a dead server) is deliberately
#: excluded from both the ``evictions`` and ``expirations`` lifecycle
#: counters — the fault is already counted by ``fault_injected`` /
#: ``server_down``.
EVICTION_REASONS = ("pressure", "expiry", "admission", "failure")

#: Valid ``kind`` values for ``fault_injected``.
FAULT_KINDS = ("spawn_failure", "crash", "timeout")

#: Valid ``reason`` values for ``invocation_shed``.
SHED_REASONS = ("retry_budget", "queue_full", "memory_pressure", "unavailable")

EVENT_TYPES: Tuple[str, ...] = tuple(sorted(EVENT_SCHEMAS))


class LifecycleCounter(NamedTuple):
    """One integer lifecycle counter of the trace/aggregate contract.

    The simulator increments a same-named field of
    :class:`~repro.sim.metrics.SimulationMetrics`;
    :class:`~repro.obs.report.TraceReport` independently counts the
    ``event`` occurrences that pass the optional field filter. The two
    must agree on a fully-traced run.
    """

    name: str
    #: Event type whose occurrences rebuild the counter from a trace.
    event: str
    #: Optional payload field the event is filtered on: it counts only
    #: when ``event[field]`` is one of ``values`` or, with no
    #: ``values``, when the field is truthy.
    field: Optional[str] = None
    values: Tuple[str, ...] = ()
    #: Also kept per tenant, from the events' ``tenant`` context field.
    per_tenant: bool = False
    #: Left out of result fingerprints while zero, so cells that never
    #: touch the subsystem behind it keep the fingerprints they had
    #: before the counter existed (committed baselines stay valid).
    zero_dropped: bool = False

    def matches(self, event: Mapping[str, Any]) -> bool:
        """Whether ``event`` (already of type :attr:`event`) counts."""
        if self.field is None:
            return True
        value = event.get(self.field)
        return value in self.values if self.values else bool(value)


#: The lifecycle counters, declared once, in ``counters()`` key order.
#: ``SimulationMetrics.counters()``/``tenant_counters()``,
#: ``TraceReport.counters()``/``tenant_counters()``, result
#: fingerprints and elastic-cluster aggregation all derive from it.
#: Adding a counter is one row here plus the code that increments the
#: same-named ``SimulationMetrics`` field (and ``FunctionOutcome``
#: field, for a per-tenant row) where the event is emitted.
LIFECYCLE_COUNTERS: Tuple[LifecycleCounter, ...] = (
    LifecycleCounter("warm_starts", "warm_hit", per_tenant=True),
    LifecycleCounter("cold_starts", "cold_start", per_tenant=True),
    LifecycleCounter("dropped", "dropped", per_tenant=True),
    LifecycleCounter("evictions", "evicted", "reason", ("pressure",)),
    # Doorkeeper admission refusals count as expirations too. The
    # ``failure`` reason is in neither row (see EVICTION_REASONS).
    LifecycleCounter(
        "expirations", "evicted", "reason", ("expiry", "admission")
    ),
    LifecycleCounter("prewarms", "container_spawned", "prewarmed"),
    LifecycleCounter("faults_injected", "fault_injected"),
    LifecycleCounter("retries", "invocation_retried"),
    LifecycleCounter("sheds", "invocation_shed"),
    LifecycleCounter("server_downs", "server_down"),
    LifecycleCounter("capacity_shrinks", "capacity_shrunk", zero_dropped=True),
    LifecycleCounter("capacity_grows", "capacity_grown", zero_dropped=True),
    LifecycleCounter("eviction_notices", "eviction_notice", zero_dropped=True),
    LifecycleCounter("deflations", "container_deflated", zero_dropped=True),
)

COUNTER_NAMES: Tuple[str, ...] = tuple(c.name for c in LIFECYCLE_COUNTERS)
TENANT_COUNTER_NAMES: Tuple[str, ...] = tuple(
    c.name for c in LIFECYCLE_COUNTERS if c.per_tenant
)
ZERO_DROPPED_COUNTERS: Tuple[str, ...] = tuple(
    c.name for c in LIFECYCLE_COUNTERS if c.zero_dropped
)


class SchemaError(ValueError):
    """An event does not conform to its declared schema."""


def validate_event(event: Mapping[str, Any]) -> None:
    """Raise :class:`SchemaError` unless ``event`` conforms.

    Checks the mandatory envelope (``event`` name, numeric
    ``time_s``), the per-type required fields and their types, and the
    ``evicted`` reason vocabulary. Extra fields (bound context) are
    allowed by design.

    >>> validate_event({"event": "dropped", "time_s": 1.0,
    ...                 "function": "f", "needed_mb": 128})
    >>> validate_event({"event": "dropped", "time_s": 1.0})
    Traceback (most recent call last):
        ...
    repro.obs.events.SchemaError: dropped event missing field 'function'
    """
    event_type = event.get("event")
    if not isinstance(event_type, str):
        raise SchemaError(f"event has no type name: {dict(event)!r}")
    schema = EVENT_SCHEMAS.get(event_type)
    if schema is None:
        raise SchemaError(
            f"unknown event type {event_type!r}; known: {list(EVENT_TYPES)}"
        )
    time_s = event.get("time_s")
    if not isinstance(time_s, _NUMBER) or isinstance(time_s, bool):
        raise SchemaError(f"{event_type} event needs a numeric time_s")
    for name, types in schema.items():
        if name not in event:
            raise SchemaError(f"{event_type} event missing field {name!r}")
        value = event[name]
        # bool is an int subclass; only accept it where bool is listed.
        if isinstance(value, bool) and bool not in types:
            raise SchemaError(
                f"{event_type}.{name} must be {types}, got bool"
            )
        if not isinstance(value, types):
            raise SchemaError(
                f"{event_type}.{name} must be {types}, "
                f"got {type(value).__name__}"
            )
    if event_type == "evicted" and event["reason"] not in EVICTION_REASONS:
        raise SchemaError(
            f"evicted reason must be one of {EVICTION_REASONS}, "
            f"got {event['reason']!r}"
        )
    if event_type == "fault_injected" and event["kind"] not in FAULT_KINDS:
        raise SchemaError(
            f"fault kind must be one of {FAULT_KINDS}, got {event['kind']!r}"
        )
    if event_type == "invocation_shed" and event["reason"] not in SHED_REASONS:
        raise SchemaError(
            f"shed reason must be one of {SHED_REASONS}, "
            f"got {event['reason']!r}"
        )
