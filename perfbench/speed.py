"""Host-speed normalisation of the throughput metric.

On a shared host the CPU's speed drifts by a third over tens of seconds,
so a replay rate measured in one run and the next differ that much
with no change to the program. A fixed pure-Python loop, timed between
the timed windows of the same run, slows down and speeds up with the
host; the rate divided by the loop's rate held within about 7% over
runs whose raw medians spread over 30%. ``inv_per_s`` is that ratio,
scaled to a nominal host that runs the loop NOMINAL_LOOPS_PER_S times
a second (a two-CPU cloud VM, which the figures here come from).
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Optional, Sequence

NOMINAL_LOOPS_PER_S = 25.0
LOOP_ITERATIONS = 400_000


def loop_rate() -> float:
    """Runs of the calibration loop per second, timed once."""
    started = time.perf_counter()
    acc = 0
    for i in range(LOOP_ITERATIONS):
        acc = (acc + i * i) % 1_000_003
    return 1.0 / (time.perf_counter() - started)


def loop_rate_on(cpu: Optional[int]) -> float:
    """:func:`loop_rate` on ``cpu`` (this process's own CPUs if None),
    for timing the server's CPU while the server is idle."""
    if cpu is None:
        return loop_rate()
    own = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        return loop_rate()
    finally:
        os.sched_setaffinity(0, own)


def normalized(rates: Sequence[float], loop_rates: Sequence[float]) -> float:
    """Median rate, scaled from this host's median loop speed to the
    nominal host's."""
    return statistics.median(rates) * NOMINAL_LOOPS_PER_S / statistics.median(loop_rates)
