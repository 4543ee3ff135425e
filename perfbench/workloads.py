"""Seeded inputs for the benchmark's workloads, and the correctness gate.

The program only ever receives the traces built here. Each workload
keeps its size and character fixed and lets ``--seed`` pick one
realisation of it, so runs with different seeds measure the same
amount of the same kind of work:

* ``gd_azure`` / ``live_gd``: the paper's REPRESENTATIVE sample, built
  by ``generate_azure_dataset`` + ``make_paper_traces`` at the dataset
  seed the repository's paper-figure benchmarks use. The seed shifts
  every function's whole arrival sequence by its own offset in
  [0, 60) s, which keeps each function's inter-arrival times and moves
  the interleaving of functions. (Drawing a new dataset per seed would
  move exec-time increase between 6% and 18% and the replay rate by a
  third: that measures the sampler, not the program.)
* ``hist_churn``: ``repro.bench.churn_trace`` drawn with the seed
  itself; its 1620 functions average out, so counts move by ~4%.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

from repro.bench import churn_trace
from repro.traces.azure import AzureGeneratorConfig, generate_azure_dataset
from repro.traces.model import Invocation, Trace
from repro.traces.sampling import make_paper_traces

#: Dataset configuration and seed of benchmarks/conftest.py (Figs. 5-6).
PAPER_DATASET = AzureGeneratorConfig(
    num_functions=3000, max_daily_invocations=20_000
)
PAPER_SEED = 42

#: (policy, memory MB) per workload. 10 GB is on the knee of GD's
#: cold-start curve for this sample; the churn pool never fills.
CONFIG: Dict[str, Tuple[str, float]] = {
    "gd_azure": ("GD", 10.0 * 1024.0),
    "hist_churn": ("HIST", 2048.0 * 128.0),
    "live_gd": ("GD", 10.0 * 1024.0),
}

#: Lifecycle counters of one replay of each workload's trace, per seed
#: (seeds 0-20). Counters not listed must be zero. ``live_gd`` replays
#: the ``gd_azure`` trace, so its first pass is held to the same values.
#: Seed 1 is run.py's default; seed 2 was kept out of the steadiness
#: tuning and is meant for checking later claims.
PINNED: Dict[Tuple[str, int], Dict[str, int]] = {
    ('gd_azure', 0): {'warm_starts': 30343, 'cold_starts': 5597, 'evictions': 5485},
    ('gd_azure', 1): {'warm_starts': 30238, 'cold_starts': 5702, 'evictions': 5595},
    ('gd_azure', 2): {'warm_starts': 30308, 'cold_starts': 5632, 'evictions': 5522},
    ('gd_azure', 3): {'warm_starts': 30251, 'cold_starts': 5689, 'evictions': 5582},
    ('gd_azure', 4): {'warm_starts': 30256, 'cold_starts': 5684, 'evictions': 5576},
    ('gd_azure', 5): {'warm_starts': 30241, 'cold_starts': 5699, 'evictions': 5591},
    ('gd_azure', 6): {'warm_starts': 30312, 'cold_starts': 5628, 'evictions': 5516},
    ('gd_azure', 7): {'warm_starts': 30297, 'cold_starts': 5643, 'evictions': 5533},
    ('gd_azure', 8): {'warm_starts': 30194, 'cold_starts': 5746, 'evictions': 5638},
    ('gd_azure', 9): {'warm_starts': 30263, 'cold_starts': 5677, 'evictions': 5566},
    ('gd_azure', 10): {'warm_starts': 30284, 'cold_starts': 5656, 'evictions': 5548},
    ('gd_azure', 11): {'warm_starts': 30250, 'cold_starts': 5690, 'evictions': 5578},
    ('gd_azure', 12): {'warm_starts': 30247, 'cold_starts': 5693, 'evictions': 5584},
    ('gd_azure', 13): {'warm_starts': 30280, 'cold_starts': 5660, 'evictions': 5550},
    ('gd_azure', 14): {'warm_starts': 30292, 'cold_starts': 5648, 'evictions': 5538},
    ('gd_azure', 15): {'warm_starts': 30237, 'cold_starts': 5703, 'evictions': 5596},
    ('gd_azure', 16): {'warm_starts': 30290, 'cold_starts': 5650, 'evictions': 5538},
    ('gd_azure', 17): {'warm_starts': 30248, 'cold_starts': 5692, 'evictions': 5583},
    ('gd_azure', 18): {'warm_starts': 30251, 'cold_starts': 5689, 'evictions': 5580},
    ('gd_azure', 19): {'warm_starts': 30231, 'cold_starts': 5709, 'evictions': 5602},
    ('gd_azure', 20): {'warm_starts': 30315, 'cold_starts': 5625, 'evictions': 5517},
    ('hist_churn', 0): {'warm_starts': 95594, 'cold_starts': 2134, 'expirations': 21188, 'prewarms': 20292},
    ('hist_churn', 1): {'warm_starts': 99736, 'cold_starts': 2127, 'expirations': 21025, 'prewarms': 20144},
    ('hist_churn', 2): {'warm_starts': 100744, 'cold_starts': 2125, 'expirations': 20009, 'prewarms': 19118},
    ('hist_churn', 3): {'warm_starts': 99262, 'cold_starts': 2146, 'expirations': 20831, 'prewarms': 19923},
    ('hist_churn', 4): {'warm_starts': 102014, 'cold_starts': 2094, 'expirations': 20673, 'prewarms': 19809},
    ('hist_churn', 5): {'warm_starts': 94521, 'cold_starts': 2146, 'expirations': 21330, 'prewarms': 20395},
    ('hist_churn', 6): {'warm_starts': 99302, 'cold_starts': 2107, 'expirations': 21004, 'prewarms': 20108},
    ('hist_churn', 7): {'warm_starts': 99892, 'cold_starts': 2121, 'expirations': 20970, 'prewarms': 20085},
    ('hist_churn', 8): {'warm_starts': 94815, 'cold_starts': 2119, 'expirations': 21221, 'prewarms': 20326},
    ('hist_churn', 9): {'warm_starts': 98302, 'cold_starts': 2125, 'expirations': 21365, 'prewarms': 20477},
    ('hist_churn', 10): {'warm_starts': 101689, 'cold_starts': 2103, 'expirations': 20913, 'prewarms': 20045},
    ('hist_churn', 11): {'warm_starts': 99041, 'cold_starts': 2103, 'expirations': 21733, 'prewarms': 20871},
    ('hist_churn', 12): {'warm_starts': 97871, 'cold_starts': 2136, 'expirations': 20907, 'prewarms': 20005},
    ('hist_churn', 13): {'warm_starts': 96579, 'cold_starts': 2110, 'expirations': 21407, 'prewarms': 20533},
    ('hist_churn', 14): {'warm_starts': 99768, 'cold_starts': 2105, 'expirations': 20639, 'prewarms': 19761},
    ('hist_churn', 15): {'warm_starts': 98457, 'cold_starts': 2120, 'expirations': 21368, 'prewarms': 20446},
    ('hist_churn', 16): {'warm_starts': 98680, 'cold_starts': 2133, 'expirations': 20020, 'prewarms': 19091},
    ('hist_churn', 17): {'warm_starts': 98590, 'cold_starts': 2109, 'expirations': 20620, 'prewarms': 19731},
    ('hist_churn', 18): {'warm_starts': 97330, 'cold_starts': 2159, 'expirations': 21352, 'prewarms': 20416},
    ('hist_churn', 19): {'warm_starts': 100831, 'cold_starts': 2126, 'expirations': 20434, 'prewarms': 19548},
    ('hist_churn', 20): {'warm_starts': 97927, 'cold_starts': 2115, 'expirations': 20663, 'prewarms': 19780},
}


def gd_azure_trace(seed: int) -> Trace:
    dataset = generate_azure_dataset(PAPER_DATASET, seed=PAPER_SEED)
    base = make_paper_traces(dataset, seed=PAPER_SEED)["representative"]
    rng = random.Random(seed)
    offsets = {name: rng.uniform(0.0, 60.0) for name in sorted(base.functions)}
    invocations = [
        Invocation(inv.time_s + offsets[inv.function_name], inv.function_name)
        for inv in base
    ]
    return Trace(base.functions.values(), invocations, name=f"gd_azure-{seed}")


def hist_churn_trace(seed: int) -> Trace:
    return churn_trace(seed=seed, name=f"hist_churn-{seed}")


def build_trace(workload: str, seed: int) -> Trace:
    if workload == "hist_churn":
        return hist_churn_trace(seed)
    return gd_azure_trace(seed)


def counter_problems(
    workload: str,
    seed: int,
    counters: Mapping[str, int],
    invocations: int,
) -> List[str]:
    """Why ``counters`` from one replay of ``invocations`` arrivals of
    the workload's trace are wrong; empty when they pass the gate. On a
    pinned seed each counter given must equal its pinned value (zero if
    not pinned)."""
    problems = []
    decided = (
        counters.get("warm_starts", 0)
        + counters.get("cold_starts", 0)
        + counters.get("dropped", 0)
    )
    if decided != invocations:
        problems.append(
            f"warm + cold + dropped = {decided}, expected {invocations}"
        )
    pinned = PINNED.get(("gd_azure" if workload == "live_gd" else workload, seed))
    if pinned is not None:
        for key, value in sorted(counters.items()):
            expected = pinned.get(key, 0)
            if value != expected:
                problems.append(f"{key} = {value}, pinned {expected}")
    return problems


@dataclass
class Tally:
    """Operations attempted and failed in one run, and why they failed.
    An operation fails when it errors or when the replay or request
    stream it belongs to fails a check."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def gate(self, label: str, problems: List[str], operations: int) -> None:
        self.attempted += operations
        if problems:
            self.failed += operations
            for problem in problems:
                if f"{label}: {problem}" not in self.problems:
                    self.problems.append(f"{label}: {problem}")
