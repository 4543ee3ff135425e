from workloads import PINNED, Tally, counter_problems


def _pinned_counters(workload, seed):
    counters = dict.fromkeys(
        ("warm_starts", "cold_starts", "dropped", "evictions", "expirations", "prewarms"), 0
    )
    counters.update(PINNED[(workload, seed)])
    invocations = counters["warm_starts"] + counters["cold_starts"] + counters["dropped"]
    return counters, invocations


def test_pinned_counters_pass():
    for workload, seed in PINNED:
        counters, invocations = _pinned_counters(workload, seed)
        assert counter_problems(workload, seed, counters, invocations) == []


def test_a_perturbed_counter_is_rejected():
    counters, invocations = _pinned_counters("gd_azure", 1)
    counters["evictions"] += 1
    assert counter_problems("gd_azure", 1, counters, invocations) == [
        f"evictions = {counters['evictions']}, pinned {counters['evictions'] - 1}"
    ]


def test_a_counter_pinned_at_zero_is_rejected_when_nonzero():
    counters, invocations = _pinned_counters("hist_churn", 1)
    counters["evictions"] = 3
    assert counter_problems("hist_churn", 1, counters, invocations)


def test_outcomes_must_cover_every_invocation_on_any_seed():
    counters = {"warm_starts": 7, "cold_starts": 2, "dropped": 0}
    assert counter_problems("hist_churn", 999, counters, 9) == []
    assert counter_problems("hist_churn", 999, counters, 10)


def test_live_first_pass_is_held_to_the_gd_azure_pins():
    counters, invocations = _pinned_counters("gd_azure", 2)
    outcomes = {k: counters[k] for k in ("warm_starts", "cold_starts", "dropped")}
    assert counter_problems("live_gd", 2, outcomes, invocations) == []
    outcomes["cold_starts"] -= 1
    outcomes["warm_starts"] += 1
    assert len(counter_problems("live_gd", 2, outcomes, invocations)) == 2


def test_a_failed_check_fails_all_operations_it_covers():
    tally = Tally()
    tally.gate("replay", [], 100)
    tally.gate("replay", ["cold_starts = 1, pinned 2"], 50)
    assert (tally.attempted, tally.failed) == (150, 50)
    assert tally.problems == ["replay: cold_starts = 1, pinned 2"]
