"""Benchmark of the FaasCache reproduction: one workload per run.

Usage, from the repository root:

    python3 perfbench/run.py --workload gd_azure --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md and BENCHMARK.json):

* ``gd_azure``   GD through ``ColumnarReplayEngine.run`` on the paper's
  REPRESENTATIVE sample at 10 GB;
* ``hist_churn`` HIST through ``ColumnarReplayEngine.run`` on
  ``repro.bench.churn_trace``;
* ``live_gd``    ``repro-faascache serve --clock sim`` in a child process,
  driven over HTTP with the ``gd_azure`` trace.

``--trace 0`` measures the end-to-end metrics for ``--seconds``;
``--trace 1`` makes the traced run that yields the per-layer metrics. Every run checks the
program's outputs. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it repeat every metric with its unit. The exit code is 0 only
when every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback
from typing import Dict, Mapping

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("gd_azure", "hist_churn", "live_gd")


def declared_units(trace: bool, root: str = ROOT) -> Dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for a run."""
    with open(os.path.join(root, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    section = spec["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def result_line(
    correct: bool,
    attempted: int,
    failed: int,
    values: Mapping[str, float],
    units: Mapping[str, str],
) -> str:
    """The final JSON line. The metric names must be exactly the
    declared ones and every value a finite number."""
    if set(values) != set(units):
        raise ValueError(
            f"metrics {sorted(set(values) ^ set(units))} are printed but "
            "not declared, or declared but not printed"
        )
    bad = sorted(name for name, value in values.items() if not math.isfinite(value))
    if bad:
        raise ValueError(f"metrics {bad} are not finite")
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": float(values[name]), "unit": units[name]}
                for name in sorted(values)
            },
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import live
    import offline  # needs the program on the path
    import online
    from workloads import Tally

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    spans_out = os.path.join(out_dir, f"spans-{args.workload}.npz")
    units = declared_units(bool(args.trace))
    tally = Tally()
    server_cpu = live.split_cpus()
    try:
        if args.workload == "live_gd":
            if args.trace:
                values = online.run_traced(ROOT, args.seed, tally, out_dir, spans_out, server_cpu)
            else:
                values = online.run(ROOT, args.seed, args.seconds, tally, out_dir, server_cpu)
        elif args.trace:
            values = offline.run_traced(args.workload, args.seed, tally, spans_out)
        else:
            values = offline.run(args.workload, args.seed, args.seconds, tally)
        line = result_line(not tally.problems, tally.attempted, tally.failed, values, units)
    except Exception:  # noqa: BLE001 - a run that raises fails as a whole
        traceback.print_exc()
        tally.attempted = tally.failed = max(tally.attempted, 1)
        tally.problems.append("the run raised")
        line = result_line(False, tally.attempted, tally.failed, {name: 0.0 for name in units}, units)
        values = {}

    for note in tally.notes:
        print(f"# {note}")
    for name in sorted(values):
        print(f"{name:32s} {values[name]:14.6g} {units[name]}")
    print(f"{'error_frac':32s} {tally.failed / max(tally.attempted, 1):14.6g} ({tally.failed} of {tally.attempted} failed)")
    for problem in tally.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(line, flush=True)
    return 1 if tally.problems else 0


if __name__ == "__main__":
    sys.exit(main())
