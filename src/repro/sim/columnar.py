"""Columnar replay engine: batched replay of struct-of-arrays traces.

The object-based :class:`~repro.sim.scheduler.KeepAliveSimulator`
pays per-invocation Python dispatch for every arrival. This engine
replays :class:`~repro.traces.columnar.ColumnarTrace` (or streaming)
workloads in chunks and, where the policy's semantics allow it,
replaces the per-arrival loop with vectorized NumPy recurrences —
while producing **byte-identical** :class:`SimulationMetrics` to the
object path, which stays in the tree as the differential-testing
oracle (``tests/test_columnar_differential.py``).

Two paths, chosen per run and reported via :attr:`last_path`:

``vectorized-ttl``
    An exact closed-form replay of the plain-TTL policy. Applies only
    when the replay is provably equivalent to the object simulator:
    pure :class:`TTLPolicy`, no tracer / faults / warmup / timeline /
    reserved concurrency, every function's arrival gap covers its
    cold time (so a function never holds two containers), and the
    arriving functions' total footprint fits in capacity (so pressure
    eviction never fires). Under those preconditions each function's
    container deadline follows the recurrence ``d_i = (t_i + dur_i) +
    ttl`` with ``cold_i ⇔ d_{i-1} <= t_i``, which resolves chunk by
    chunk with three vectorized classifications (certainly-cold,
    certainly-warm, and an alternating ambiguous band) — see
    ``docs/performance.md`` for the derivation. Metric sums use
    ``np.add.accumulate``, whose strict left-to-right evaluation
    reproduces the oracle's sequential ``+=`` bit for bit.

``sequential``
    The fallback for every other policy/configuration: the same
    object simulator, fed from chunked ``tolist`` buffers so a
    streamed trace never materializes invocation objects beyond the
    current chunk. Used unconditionally under ``REPRO_SANITIZE`` so
    the sanitizer's per-event invariant checks always see every
    arrival.

The kernel's preconditions are re-validated on every chunk; a
violation discovered mid-stream discards the kernel state and
restarts on the sequential path (chunk sources are restartable by
contract), so the fast path can never silently diverge.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.checks.sanitize import sanitize_enabled
from repro.core.clock import wall_clock_s
from repro.core.policies.base import KeepAlivePolicy, create_policy
from repro.core.policies.ttl import TTLPolicy
from repro.sim.metrics import FunctionOutcome, SimulationMetrics
from repro.sim.scheduler import KeepAliveSimulator, SimulationResult
from repro.traces.columnar import (
    DEFAULT_CHUNK_INVOCATIONS,
    ColumnarTrace,
    FunctionTable,
)
from repro.traces.model import Trace
from repro.traces.streaming import StreamingChurnTrace

__all__ = ["ColumnarReplayEngine", "replay_columnar"]

#: Trace forms the engine replays: materialized columnar arrays or a
#: restartable chunk stream (both expose ``name``, ``functions``,
#: ``functions_table``, and ``duration_s``).
ColumnarSource = Union[ColumnarTrace, StreamingChurnTrace]


def _chunks_of(
    trace: ColumnarSource, chunk_invocations: int
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    if isinstance(trace, ColumnarTrace):
        return trace.iter_chunks(chunk_invocations)
    return trace.chunks()


class ColumnarReplayEngine:
    """Replay columnar traces; vectorize when provably equivalent."""

    def __init__(
        self,
        policy: Union[str, KeepAlivePolicy],
        memory_mb: float,
        chunk_invocations: int = DEFAULT_CHUNK_INVOCATIONS,
        track_memory_timeline: bool = False,
        timeline_interval_s: float = 60.0,
        prewarm_effectiveness: float = 1.0,
        reserved_concurrency: Optional[dict] = None,
        warmup_s: float = 0.0,
        tracer=None,
        fault_spec=None,
        server_index: int = 0,
        tenant_mode: str = "shared",
        tenant_quotas: Optional[Dict[int, float]] = None,
        **policy_kwargs,
    ) -> None:
        """Same knobs as :class:`KeepAliveSimulator`; ``policy`` may be
        a registry name (with ``policy_kwargs``) or an instance. Like
        the simulator, one engine instance runs one replay — policies
        accumulate state across invocations by design."""
        if isinstance(policy, str):
            policy = create_policy(policy, **policy_kwargs)
        elif policy_kwargs:
            raise ValueError(
                "policy_kwargs are only valid with a policy name"
            )
        if chunk_invocations < 1:
            raise ValueError(
                f"chunk size must be >= 1, got {chunk_invocations}"
            )
        self.policy = policy
        self.memory_mb = float(memory_mb)
        self.chunk_invocations = chunk_invocations
        self._sim_kwargs = dict(
            track_memory_timeline=track_memory_timeline,
            timeline_interval_s=timeline_interval_s,
            prewarm_effectiveness=prewarm_effectiveness,
            reserved_concurrency=reserved_concurrency,
            warmup_s=warmup_s,
            tracer=tracer,
            fault_spec=fault_spec,
            server_index=server_index,
            tenant_mode=tenant_mode,
            tenant_quotas=tenant_quotas,
        )
        #: Which path the last :meth:`run` took: ``"vectorized-ttl"``
        #: or ``"sequential"`` (None before the first run).
        self.last_path: Optional[str] = None

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def run(self, trace: Union[Trace, ColumnarSource]) -> SimulationResult:
        """Replay ``trace`` and return the collected metrics."""
        if isinstance(trace, Trace):
            trace = ColumnarTrace.from_trace(trace)
        if self._kernel_eligible() and not trace.functions_table.has_tenants:
            result = _run_ttl_kernel(
                trace,
                self.policy.ttl_s,
                self.memory_mb,
                self.policy.name,
                self.chunk_invocations,
            )
            if result is not None:
                self.last_path = "vectorized-ttl"
                return result
        self.last_path = "sequential"
        return self._run_sequential(trace)

    # ------------------------------------------------------------------
    # Path selection
    # ------------------------------------------------------------------

    def _kernel_eligible(self) -> bool:
        """Static preconditions for the vectorized TTL kernel.

        Exact type match (a subclass may override any hook), default
        simulator configuration only, and never under the runtime
        sanitizer — the sequential loop is what the sanitizer's
        per-event invariants instrument, so sanitized runs take it
        unconditionally (maximal checking beats maximal speed there).
        Tenancy disqualifies the kernel twice over: non-shared pool
        modes change victim selection, and even a shared-mode replay of
        a tenant-tagged trace must fall back so the per-tenant metrics
        the oracle records are produced (``run`` additionally checks
        the trace's tenant column). Per-trace preconditions (arrival
        gaps, capacity headroom) are validated chunk by chunk inside
        the kernel itself.
        """
        if type(self.policy) is not TTLPolicy:
            return False
        kwargs = self._sim_kwargs
        if (
            kwargs["tracer"] is not None
            or kwargs["fault_spec"] is not None
            or kwargs["reserved_concurrency"]
            or kwargs["track_memory_timeline"]
            or kwargs["warmup_s"] > 0.0
            or kwargs["tenant_mode"] != "shared"
        ):
            return False
        if sanitize_enabled():
            return False
        return True

    # ------------------------------------------------------------------
    # Sequential path (the oracle, fed in chunks)
    # ------------------------------------------------------------------

    def _run_sequential(self, trace: ColumnarSource) -> SimulationResult:
        simulator = KeepAliveSimulator(
            trace, self.policy, self.memory_mb, **self._sim_kwargs
        )
        started = wall_clock_s()
        objects = trace.functions_table.objects()
        process = simulator.process_invocation
        end_s = 0.0
        for times, fids in _chunks_of(trace, self.chunk_invocations):
            # One bulk conversion per chunk: the inner loop runs on
            # plain floats and ints, with no per-invocation array
            # indexing or object construction.
            time_list = times.tolist()
            for now_s, fid in zip(time_list, fids.tolist()):
                process(objects[fid], now_s)
            if time_list:
                end_s = time_list[-1]
        return simulator.finalize(end_s, started)


# ----------------------------------------------------------------------
# Vectorized TTL kernel
# ----------------------------------------------------------------------
#
# Equivalence argument (with gaps >= cold time and capacity never
# binding, each function owns at most one container and pressure
# eviction never fires):
#
# * The object simulator schedules a container's expiry at
#   ``(start + duration) + ttl`` and pops deadlines ``<= now`` before
#   the warm lookup, so arrival *i* of a function is cold exactly when
#   its previous arrival's deadline ``d_{i-1} <= t_i``.
# * ``d_{i-1}`` is one of two per-arrival candidates — warm or cold
#   duration — so each arrival classifies as *certainly cold* (even
#   the cold-duration deadline has passed), *certainly warm* (even the
#   warm-duration deadline is alive), or *ambiguous*, where exactly
#   one step of history decides: ``cold_i = not cold_{i-1}`` (a cold
#   predecessor's longer deadline survives, a warm one's has lapsed).
#   Ambiguity therefore *alternates*, and a run of ambiguous arrivals
#   after a certain one resolves by parity — a gather plus an XOR.
# * Expirations: every non-final container of a function expired
#   before the cold start that replaced it, and the final one expires
#   iff its deadline precedes the global last arrival (the expiry
#   phase runs at every arrival under TTL), giving
#   ``(cold_starts - functions_arrived) + finals_lapsed``.
# * Metric sums replay the oracle's exact left-to-right float
#   accumulation via ``np.add.accumulate`` with a scalar carry across
#   chunks (covered by a dedicated exactness test).


class _TTLKernelState:
    """Per-function recurrence state carried across chunks."""

    def __init__(self, table: FunctionTable) -> None:
        count = len(table)
        self.d_prev = np.full(count, -np.inf)  # deadline after last use
        self.t_prev = np.full(count, -np.inf)  # last arrival time
        self.arrived = np.zeros(count, dtype=bool)
        self.cold_counts = np.zeros(count, dtype=np.int64)
        self.total_counts = np.zeros(count, dtype=np.int64)
        self.appearance: List[int] = []  # fids in first-arrival order
        self.arrived_memory_mb = 0.0
        self.ideal_sum = 0.0
        self.actual_sum = 0.0
        self.invocations = 0
        self.t_last = 0.0


def _run_ttl_kernel(
    trace: ColumnarSource,
    ttl_s: float,
    capacity_mb: float,
    policy_name: str,
    chunk_invocations: int,
) -> Optional[SimulationResult]:
    """Closed-form TTL replay; None when a precondition fails."""
    started = wall_clock_s()
    table = trace.functions_table
    state = _TTLKernelState(table)
    for times, fids in _chunks_of(trace, chunk_invocations):
        if not _ttl_kernel_chunk(state, table, times, fids, ttl_s, capacity_mb):
            return None
    metrics = _ttl_kernel_metrics(state, table)
    metrics.wall_time_s = wall_clock_s() - started
    return SimulationResult(
        trace_name=trace.name,
        policy_name=policy_name,
        memory_mb=capacity_mb,
        metrics=metrics,
    )


def _ttl_kernel_chunk(
    state: _TTLKernelState,
    table: FunctionTable,
    times: np.ndarray,
    fids: np.ndarray,
    ttl_s: float,
    capacity_mb: float,
) -> bool:
    """Process one chunk; False on a precondition violation."""
    size = times.size
    if size == 0:
        return True
    # Group by function with arrival order preserved inside groups.
    order = np.argsort(fids, kind="stable")
    fs = fids[order]
    ts = times[order]
    warm_t = table.warm_time_s[fs]
    cold_t = table.cold_time_s[fs]
    seg_start = np.empty(size, dtype=bool)
    seg_start[0] = True
    np.not_equal(fs[1:], fs[:-1], out=seg_start[1:])

    # Precondition: every same-function gap covers the cold time, so
    # the previous invocation (warm or cold) has always finished and
    # a function never needs a second concurrent container.
    gaps = np.empty(size)
    gaps[0] = np.inf
    np.subtract(ts[1:], ts[:-1], out=gaps[1:])
    carried_t_prev = state.t_prev[fs]
    gaps = np.where(seg_start, ts - carried_t_prev, gaps)
    if bool(np.any(gaps < cold_t)):
        return False

    # Precondition: the arriving working set fits outright, so the
    # pressure path (victim selection, drops) can never trigger.
    first_seen = seg_start & ~state.arrived[fs]
    if bool(np.any(first_seen)):
        new_fids = fs[first_seen]
        state.arrived_memory_mb += float(
            np.add.reduce(table.memory_mb[new_fids])
        )
        if state.arrived_memory_mb > capacity_mb:
            return False
        # Record first arrivals in *global* (chunk) order — the order
        # the oracle's per-function dict acquires its keys.
        chunk_arrived = state.arrived.copy()
        for pos in np.sort(order[first_seen]).tolist():
            fid = int(fids[pos])
            if not chunk_arrived[fid]:
                chunk_arrived[fid] = True
                state.appearance.append(fid)
        state.arrived[new_fids] = True

    # Deadline candidates after each arrival: the simulator schedules
    # (start + duration) + ttl with exactly this association order.
    d_warm = (ts + warm_t) + ttl_s
    d_cold = (ts + cold_t) + ttl_s

    # Classify arrivals. Segment heads compare against the carried
    # (exact) previous deadline; interior arrivals against their
    # predecessor's two candidates.
    prev_dw = np.empty(size)
    prev_dc = np.empty(size)
    prev_dw[0] = prev_dc[0] = np.inf  # head: decided by carried state
    prev_dw[1:] = d_warm[:-1]
    prev_dc[1:] = d_cold[:-1]
    certainly_cold = prev_dc <= ts
    certainly_warm = prev_dw > ts
    head_cold = state.d_prev[fs] <= ts
    certain = seg_start | certainly_cold | certainly_warm
    certain_value = np.where(seg_start, head_cold, certainly_cold)
    # Ambiguous arrivals alternate (cold_i = not cold_{i-1}); resolve
    # each against the nearest earlier certain arrival by parity.
    positions = np.arange(size)
    anchor = np.where(certain, positions, -1)
    np.maximum.accumulate(anchor, out=anchor)
    cold_sorted = certain_value[anchor] ^ (((positions - anchor) & 1) == 1)

    # Commit per-function recurrence state at segment tails.
    seg_end = np.empty(size, dtype=bool)
    seg_end[-1] = True
    seg_end[:-1] = seg_start[1:]
    d_final = np.where(cold_sorted, d_cold, d_warm)
    tail_fids = fs[seg_end]
    state.d_prev[tail_fids] = d_final[seg_end]
    state.t_prev[tail_fids] = ts[seg_end]

    # Counters and the oracle's exact sequential metric sums, in
    # global arrival order.
    function_count = len(table)
    state.cold_counts += np.bincount(
        fs[cold_sorted], minlength=function_count
    )
    state.total_counts += np.bincount(fs, minlength=function_count)
    cold_in_order = np.empty(size, dtype=bool)
    cold_in_order[order] = cold_sorted
    ideal = np.empty(size + 1)
    ideal[0] = state.ideal_sum
    ideal[1:] = table.warm_time_s[fids]
    state.ideal_sum = float(np.add.accumulate(ideal)[-1])
    actual = np.empty(size + 1)
    actual[0] = state.actual_sum
    actual[1:] = np.where(
        cold_in_order, table.cold_time_s[fids], table.warm_time_s[fids]
    )
    state.actual_sum = float(np.add.accumulate(actual)[-1])
    state.invocations += int(size)
    state.t_last = float(times[-1])
    return True


def _ttl_kernel_metrics(
    state: _TTLKernelState, table: FunctionTable
) -> SimulationMetrics:
    metrics = SimulationMetrics()
    if not state.invocations:
        return metrics
    total_cold = int(np.add.reduce(state.cold_counts))
    metrics.cold_starts = total_cold
    metrics.warm_starts = state.invocations - total_cold
    metrics.ideal_exec_time_s = state.ideal_sum
    metrics.actual_exec_time_s = state.actual_sum
    arrived_fids = np.array(state.appearance, dtype=np.int64)
    finals_lapsed = int(
        np.count_nonzero(state.d_prev[arrived_fids] <= state.t_last)
    )
    metrics.expirations = (
        total_cold - len(state.appearance) + finals_lapsed
    )
    names = table.names
    cold_counts = state.cold_counts
    total_counts = state.total_counts
    for fid in state.appearance:
        cold = int(cold_counts[fid])
        metrics.per_function[names[fid]] = FunctionOutcome(
            warm_starts=int(total_counts[fid]) - cold, cold_starts=cold
        )
    return metrics


def replay_columnar(
    trace: Union[Trace, ColumnarSource],
    policy: Union[str, KeepAlivePolicy],
    memory_mb: float,
    **kwargs,
) -> SimulationResult:
    """One-shot columnar replay (mirrors :func:`repro.sim.scheduler.simulate`)."""
    engine = ColumnarReplayEngine(policy, memory_mb, **kwargs)
    return engine.run(trace)
