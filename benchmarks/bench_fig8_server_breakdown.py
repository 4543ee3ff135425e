"""Figure 8: per-function warm/cold/dropped breakdown on one server.

Regenerates the paper's Figure 8 experiment: the four Table 1
applications at the paper's inter-arrival times (floating point every
400 ms; CNN, disk-bench, web-serving every 1500 ms) on a shared
invoker for two hours. As in any real deployment — and per the
paper's Section 3.1 — the invoker concurrently hosts other tenants'
functions, which supply the memory pressure under which keep-alive
choices matter.

Expected shapes: FaasCache drops several-fold fewer requests, serves
more total invocations, improves mean application latency, and keeps
the high-init-cost floating-point function's hit ratio at least as
high as vanilla OpenWhisk's.
"""

from repro.analysis.reporting import format_table
from repro.openwhisk.invoker import InvokerConfig
from repro.openwhisk.loadgen import compare_keepalive_systems
from repro.traces.synth import multitenant_trace

from conftest import write_result

CONFIG = InvokerConfig(
    memory_mb=12_288.0,  # ContainerPool user-memory share of the server
    cpu_cores=16,
    request_timeout_s=20.0,
    max_concurrent_launches=4,
)

FOREGROUND = (
    "floating-point",
    "web-serving",
    "disk-bench-dd",
    "ml-inference-cnn",
)


def run_fig8():
    trace = multitenant_trace(duration_s=7200.0)
    return compare_keepalive_systems(trace, CONFIG)


def test_fig8_server_breakdown(benchmark):
    cmp = benchmark.pedantic(run_fig8, rounds=1, iterations=1)
    ow, fc = cmp.openwhisk, cmp.faascache
    rows = [
        ["OpenWhisk", ow.warm_starts, ow.cold_starts, ow.dropped,
         ow.mean_latency_s(), ow.percentile_latency_s(99.0),
         ow.mean_queue_wait_s()],
        ["FaasCache", fc.warm_starts, fc.cold_starts, fc.dropped,
         fc.mean_latency_s(), fc.percentile_latency_s(99.0),
         fc.mean_queue_wait_s()],
    ]
    summary = format_table(
        ["System", "Warm", "Cold", "Dropped", "Mean lat (s)", "p99 (s)",
         "Queue wait (s)"],
        rows,
        title="Figure 8: request breakdown on a shared 16-core server",
    )
    fn_rows = []
    ow_fn, fc_fn = ow.per_function(), fc.per_function()
    for name in FOREGROUND:
        fn_rows.append(
            [
                name,
                ow_fn[name].warm_starts,
                ow_fn[name].dropped,
                ow.function_hit_ratio(name),
                fc_fn[name].warm_starts,
                fc_fn[name].dropped,
                fc.function_hit_ratio(name),
            ]
        )
    detail = format_table(
        ["Function", "OW warm", "OW drop", "OW hit", "FC warm", "FC drop", "FC hit"],
        fn_rows,
        title="Figure 8 detail: foreground functions",
    )
    write_result("fig8.txt", summary + "\n\n" + detail)

    # FaasCache drops far fewer requests and serves more in total.
    assert fc.dropped < 0.6 * ow.dropped
    assert fc.served > ow.served
    # Latency improves.
    assert fc.mean_latency_s() <= ow.mean_latency_s()
    # The high-init floating-point function stays at least as warm.
    assert (
        fc.function_hit_ratio("floating-point")
        >= ow.function_hit_ratio("floating-point") - 0.01
    )
