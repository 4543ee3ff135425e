import loads
import speed
from loads import Rung, ladder


def _climb(capacity):
    """Drive the ladder against a server that holds every rate up to
    ``capacity``; return the result and the rates tried."""
    tried = []
    steps = ladder()
    try:
        rate = next(steps)
        while True:
            tried.append(rate)
            rate = steps.send(rate <= capacity)
    except StopIteration as done:
        return done.value, tried


def test_ladder_climbs_coarse_then_fine_to_the_last_rate_that_held():
    best, tried = _climb(11_000)
    assert tried == [4000, 5000, 6250, 7812, 9765, 12206, 10253, 10766, 11304]
    assert best == 10766


def test_ladder_reports_zero_when_the_first_rung_fails():
    assert _climb(100) == (0.0, [4000])


def test_a_rung_fails_on_errors_tail_latency_or_a_growing_backlog():
    fast = [0.001] * 1000
    assert Rung(1.0, rtt_s=fast).passed()
    assert not Rung(1.0, rtt_s=fast, errors=1).passed()
    slow_tail = [0.001] * 980 + [0.5] * 20
    assert not Rung(1.0, rtt_s=slow_tail).passed()
    assert Rung(1.0, rtt_s=[0.001] * 995 + [0.5] * 5).passed()
    # p99 within 20 ms, but the last requests queue for 8 ms.
    assert not Rung(1.0, rtt_s=[0.001] * 960 + [0.008] * 40).passed()


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert loads.percentile(values, 50.0) == 50
    assert loads.percentile(values, 99.0) == 99
    assert loads.percentile(values, 100.0) == 100


def test_request_stream_repeats_the_trace_with_a_later_clock():
    from repro.traces.synth import skewed_frequency_trace

    trace = skewed_frequency_trace()
    stream = loads.RequestStream(trace)
    first = stream.take(len(trace))
    second = stream.take(len(trace))
    assert [name for name, __ in first] == [name for name, __ in second]
    assert second[0][1] > first[-1][1]
    issued = stream.issued_columnar()
    assert issued.times_s.tolist() == [now_s for __, now_s in first + second]
    names = issued.functions_table.names
    assert [names[i] for i in issued.function_ids] == [name for name, __ in first + second]


def test_normalized_rate_scales_by_the_loop_speed():
    nominal = speed.NOMINAL_LOOPS_PER_S
    assert speed.normalized([100.0, 300.0, 200.0], [nominal / 2] * 3) == 400.0
