"""Extension: admission control and provisioned concurrency.

Two mechanisms that bracket the keep-alive policy from opposite sides
(Section 3.1 motivates the first; the paper's introduction cites the
second as industry practice — AWS provisioned concurrency, Azure
warm-up triggers):

* **DOORKEEPER** refuses to cache functions until they prove
  themselves, protecting the working set from one-shot pollution.
* **Provisioned concurrency** pins containers for selected functions,
  guaranteeing warmth regardless of the policy — at a permanent
  memory cost to everyone else.

The workload interleaves an established working set with a stream of
one-shot functions (the rare tail every real FaaS server sees).
"""

from repro.analysis.reporting import format_table
from repro.core.policies import create_policy
from repro.sim.scheduler import KeepAliveSimulator
from repro.traces.model import Invocation, Trace, TraceFunction

from conftest import write_result

MEMORY_MB = 1200.0


def build_workload():
    working = [TraceFunction(f"w{i}", 200.0, 1.0, 4.0) for i in range(5)]
    one_shots = [TraceFunction(f"s{i}", 200.0, 1.0, 4.0) for i in range(120)]
    invocations = []
    t = 0.0
    for round_ in range(24):
        for f in working:
            invocations.append(Invocation(t, f.name))
            t += 2.0
        for f in one_shots[round_ * 5 : (round_ + 1) * 5]:
            invocations.append(Invocation(t, f.name))
            t += 2.0
    return Trace(working + one_shots, invocations, name="scan-mix"), working


def run_all():
    trace, working = build_workload()
    configs = {
        "GD": (create_policy("GD"), None),
        "DOORKEEPER(GD)": (create_policy("DOORKEEPER", inner="GD"), None),
        "GD + reserve w0/w1": (
            create_policy("GD"),
            {"w0": 1, "w1": 1},
        ),
    }
    rows = []
    for label, (policy, reserved) in configs.items():
        sim = KeepAliveSimulator(
            trace, policy, MEMORY_MB, reserved_concurrency=reserved
        )
        metrics = sim.run().metrics
        working_warm = sum(
            metrics.per_function[f.name].warm_starts for f in working
        )
        rows.append(
            [
                label,
                working_warm,
                metrics.warm_starts,
                metrics.cold_starts,
                metrics.exec_time_increase_pct,
            ]
        )
    return rows


def test_admission_reservation(benchmark):
    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    text = format_table(
        ["Configuration", "Working-set warm", "Warm", "Cold", "Exec incr. %"],
        rows,
        title=(
            f"Admission control and reservations under one-shot "
            f"pollution ({MEMORY_MB:.0f} MB)"
        ),
    )
    write_result("admission_reservation.txt", text)

    by_label = {row[0]: row for row in rows}
    # The doorkeeper protects the working set against the scan...
    assert (
        by_label["DOORKEEPER(GD)"][1] > by_label["GD"][1]
    )
    # ...and reservations guarantee at least the reserved functions.
    assert by_label["GD + reserve w0/w1"][1] >= by_label["GD"][1]
    # Overall execution-time inflation improves with the doorkeeper.
    assert by_label["DOORKEEPER(GD)"][4] < by_label["GD"][4]
