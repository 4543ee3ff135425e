"""Request streams, passes of requests and the rate ladder of the live
workload's client."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Generator, List, Sequence, Tuple

import numpy as np

from repro.traces.columnar import ColumnarTrace, FunctionTable
from repro.traces.model import Trace

#: A rung passes only if its p99 latency stays under this limit...
LATENCY_LIMIT_MS = 20.0
#: ...and the median latency of its last 5% of requests under this one.
#: A rate a few percent above capacity grows a backlog too slowly to
#: break the p99 limit within a rung, but its last requests wait
#: several milliseconds; a healthy rung ends near 0.2 ms.
BACKLOG_LIMIT_MS = 5.0
#: The rate the reference latencies are measured at.
REFERENCE_RPS = 4000.0
#: Length of one ladder rung.
RUNG_S = 0.5
#: The ladder climbs from REFERENCE_RPS by COARSE_STEP, then refines
#: above the last rate that passed by FINE_STEP.
COARSE_STEP = 1.25
FINE_STEP = 1.05
MAX_RPS = 250_000.0
#: Tries per rung before the climb stops.
TRIES = 3

Request = Tuple[str, float]  # (function name, now_s)


class RequestStream:
    """The trace's arrivals, repeated back to back with each repeat
    shifted past the previous one, so the stream never runs out and
    its clock never goes backwards."""

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self._arrivals = [(inv.function_name, inv.time_s) for inv in trace]
        self._period = self._arrivals[-1][1] + 60.0
        self.issued = 0

    def take(self, count: int) -> List[Request]:
        arrivals, period = self._arrivals, self._period
        out = []
        for k in range(self.issued, self.issued + count):
            cycle, i = divmod(k, len(arrivals))
            name, time_s = arrivals[i]
            out.append((name, time_s + cycle * period))
        self.issued += count
        return out

    def issued_columnar(self) -> ColumnarTrace:
        """Every request taken so far, in order, as a columnar trace
        for offline replay (12 bytes a request; the times are computed
        exactly as :meth:`take` computes them)."""
        table = FunctionTable(self.trace.functions.values())
        times = np.array([time_s for __, time_s in self._arrivals])
        ids = np.array([table.index_of(name) for name, __ in self._arrivals], dtype=np.int32)
        cycle, index = np.divmod(np.arange(self.issued), len(self._arrivals))
        return ColumnarTrace(
            table,
            times[index] + cycle * self._period,
            ids[index],
            name=f"{self.trace.name}-stream",
        )


@dataclass
class Rung:
    """One pass of requests. Per answered request, in order, its
    outcome. For an open-loop pass also, per request in order: how late
    it was sent, its latency from its due time (``inf`` if it failed or
    got no response) and the decision time the server reported
    (``nan`` if none)."""

    rate: float
    rtt_s: List[float] = field(default_factory=list)
    late_s: List[float] = field(default_factory=list)
    decision_us: List[float] = field(default_factory=list)
    outcomes: List[str] = field(default_factory=list)
    errors: int = 0

    def passed(self) -> bool:
        """No errors, p99 within LATENCY_LIMIT_MS, and no growing
        backlog (see BACKLOG_LIMIT_MS)."""
        if self.errors or not self.rtt_s:
            return False
        tail = sorted(self.rtt_s[-max(1, len(self.rtt_s) // 20):])
        return (
            percentile(sorted(self.rtt_s), 99.0) <= LATENCY_LIMIT_MS / 1e3
            and tail[len(tail) // 2] <= BACKLOG_LIMIT_MS / 1e3
        )


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not ordered:
        return math.nan
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def rung_size(rate: float) -> int:
    return max(1, int(round(rate * RUNG_S)))


def ladder() -> Generator[float, bool, float]:
    """The rate ladder as a generator: it yields the next rate to try,
    is sent whether that rate held, and returns the highest rate that
    held."""
    best, rate = 0.0, REFERENCE_RPS
    while rate <= MAX_RPS and (yield rate):
        best, rate = rate, round(rate * COARSE_STEP)
    if best == 0.0 or rate > MAX_RPS:
        return best
    fine = round(best * FINE_STEP)
    while fine < rate and (yield fine):
        best, fine = fine, round(fine * FINE_STEP)
    return best
