#!/usr/bin/env python3
"""Advanced policies: clairvoyant bounds, admission control, reservations.

Three extensions beyond the paper's lineup, on one skewed workload:

1. **Clairvoyant bound** — how much headroom is left above GD? The
   ORACLE-CS policy knows the future; the gap between it and GD is
   the most any online policy could still gain.
2. **Doorkeeper admission** — one-shot functions stop polluting the
   cache when retention requires proving yourself twice.
3. **Provisioned concurrency** — pinning a container for a rare but
   latency-critical function guarantees it warm starts, at the cost
   of permanently ceding cache to it.

Run:  python examples/advanced_policies.py
"""

from repro.analysis.reporting import format_table
from repro.core.policies import create_policy
from repro.sim.scheduler import KeepAliveSimulator, simulate
from repro.traces.model import Invocation, Trace, TraceFunction
from repro.traces.synth import cyclic_trace, periodic_arrivals


def policy_ladder() -> None:
    trace = cyclic_trace(num_functions=12, cycle_gap_s=2.0, num_cycles=150)
    memory_mb = 2304.0
    rows = []
    for label, policy in (
        ("LRU (recency only)", create_policy("LRU")),
        ("GD (the paper)", create_policy("GD")),
        ("ORACLE (Belady)", create_policy("ORACLE", trace=trace)),
        ("ORACLE-CS (bound)", create_policy("ORACLE-CS", trace=trace)),
    ):
        metrics = simulate(trace, policy, memory_mb).metrics
        rows.append(
            [label, metrics.warm_starts, metrics.exec_time_increase_pct]
        )
    print(
        format_table(
            ["Policy", "Warm starts", "Exec incr. %"],
            rows,
            title="1. The online-to-clairvoyant ladder (cyclic workload)",
        )
    )


def doorkeeper_demo() -> None:
    working = [TraceFunction(f"w{i}", 200.0, 1.0, 4.0) for i in range(4)]
    scans = [TraceFunction(f"s{i}", 200.0, 1.0, 4.0) for i in range(60)]
    invocations = []
    t = 0.0
    for round_ in range(12):
        for f in working:
            invocations.append(Invocation(t, f.name))
            t += 3.0
        for f in scans[round_ * 5 : (round_ + 1) * 5]:
            invocations.append(Invocation(t, f.name))
            t += 3.0
    trace = Trace(working + scans, invocations, name="scan-pollution")

    rows = []
    for label, policy in (
        ("GD", create_policy("GD")),
        ("DOORKEEPER(GD)", create_policy("DOORKEEPER", inner="GD")),
    ):
        metrics = simulate(trace, policy, 1000.0).metrics
        working_warm = sum(metrics.per_function[f.name].warm_starts for f in working)
        rows.append([label, working_warm, metrics.warm_starts])
    print()
    print(
        format_table(
            ["Policy", "Working-set warm", "Total warm"],
            rows,
            title="2. Admission control under one-shot scan pollution",
        )
    )


def provisioned_concurrency_demo() -> None:
    vip = TraceFunction("vip-checkout", 100.0, warm_time_s=0.5, cold_time_s=4.0)
    churners = [
        TraceFunction(f"bg{i}", 150.0, warm_time_s=0.5, cold_time_s=2.0)
        for i in range(2)
    ]
    invocations = [Invocation(900.0 * i + 450.0, "vip-checkout") for i in range(8)]
    for i, f in enumerate(churners):
        invocations += periodic_arrivals(f.name, 10.0, 7200.0, start_s=5.0 * i)
    trace = Trace([vip] + churners, invocations, name="vip")

    rows = []
    for label, reserved in (("no reservation", None), ("vip pinned", {"vip-checkout": 1})):
        sim = KeepAliveSimulator(
            trace, create_policy("GD"), 350.0,
            reserved_concurrency=reserved,
        )
        metrics = sim.run().metrics
        outcome = metrics.per_function["vip-checkout"]
        rows.append([label, outcome.warm_starts, outcome.cold_starts])
    print()
    print(
        format_table(
            ["Configuration", "VIP warm", "VIP cold"],
            rows,
            title="3. Provisioned concurrency for a rare, critical function",
        )
    )


def main() -> None:
    policy_ladder()
    doorkeeper_demo()
    provisioned_concurrency_demo()


if __name__ == "__main__":
    main()
