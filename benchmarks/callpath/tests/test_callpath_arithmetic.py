"""Percentiles, the best-window reduction, the median over launches, span
self time and the compare verdicts: the arithmetic every number goes
through."""

import pytest

from compare import confirmation_gap, verdict, worse_by
from spans import Recorder
from measure import Plan, Tally, reduce_run, reduce_windows
from stats import best, percentile, spread


def test_percentile_interpolates_between_ranks():
    assert percentile([10, 20, 30, 40], 50) == 25
    assert percentile([10, 20, 30, 40], 0) == 10
    assert percentile([10, 20, 30, 40], 100) == 40
    assert percentile([5], 90) == 5
    assert percentile(range(1, 102), 90) == 91
    with pytest.raises(ValueError):
        percentile([], 50)


def test_best_sides_with_the_metric_direction():
    assert best([105.0, 100.0, 120.0], "lower") == 100.0
    assert best([105.0, 100.0, 120.0], "higher") == 120.0


def _window(p50, calls=100):
    return {
        "call_p50_us": p50, "call_p90_us": p50 * 1.2, "calls_per_s": 1e6 / p50,
        "cpu_us_per_call": p50 * 0.9, "e2e.client_cpu_us_per_call": p50 * 0.4,
        "e2e.server_cpu_us_per_call": p50 * 0.5, "e2e.call_p99_us": p50 * 2, "calls": calls,
    }


def test_windows_reduce_per_metric_and_launches_by_median():
    windows = [_window(p50) for p50 in (500.0, 470.0, 520.0, 510.0, 480.0)]
    reduced = reduce_windows(windows)
    assert reduced["call_p50_us"] == 470.0
    assert reduced["calls_per_s"] == pytest.approx(1e6 / 470.0)

    def launch(setup_s, p50s, wire_bytes):
        ws = [_window(p) for p in p50s]
        return {
            "windows": ws, "values": reduce_windows(ws), "wire_bytes": wire_bytes,
            "setup_s": setup_s, "server_rss_kib": 20480, "retries": 0,
            "steal_share": 0.0, "window_spread": max(p50s) / min(p50s),
        }

    launches = [
        launch(0.30, [469.0, 500.0, 500.0], 169 * 300),
        launch(0.20, [521.0, 530.0, 540.0], 169 * 300),
        launch(0.25, [512.0, 515.0, 518.0], 169 * 300),
    ]
    tally = Tally(attempted=1000, mismatches=1)
    metrics = reduce_run(launches, tally)
    assert metrics["setup_s"] == 0.25  # median over launches
    assert metrics["wire_bytes_per_call"] == 169.0  # a count: total ÷ total
    assert metrics["call_p50_us"] == 469.0  # the best of all nine windows
    assert metrics["ok_share"] == pytest.approx(0.999)
    assert metrics["e2e.failed_share"] == pytest.approx(0.001)
    assert metrics["e2e.launch_spread"] == pytest.approx(521.0 / 469.0)


def test_plans_spend_exactly_the_seconds_they_are_given():
    e2e = Plan.end_to_end(21.0)
    assert e2e.launches * (1 + e2e.windows) * e2e.window_s == pytest.approx(21.0)
    traced = Plan.traced(21.0)
    per_launch = (1 + traced.windows) * traced.window_s + traced.traced_s
    assert traced.launches * per_launch == pytest.approx(21.0)


def test_spreads():
    assert spread([100.0, 104.0]) == pytest.approx(1.04)


def test_self_time_subtracts_nested_and_attributed_children():
    rec = Recorder()
    with rec.span("call") as call:
        with rec.span("nrmi.prepare") as prepare:
            pass
        with rec.span("transport.request"):
            pass
    # A replay runs after the fact and is hung under the span it explains.
    with rec.span("serde.encode_args", parent=prepare) as encode:
        pass
    spans = rec.spans
    assert spans[prepare].parent == call and spans[encode].parent == prepare
    # Pin the clock so the subtraction is exact.
    spans[call].start, spans[call].end = 0, 1000
    spans[prepare].start, spans[prepare].end = 100, 400
    spans[2].start, spans[2].end = 400, 900
    spans[encode].start, spans[encode].end = 5000, 5200
    assert rec.durations("nrmi.prepare") == [300]
    assert rec.self_times("nrmi.prepare") == [100]
    assert rec.self_times("call") == [200]
    assert rec.self_times("serde.encode_args") == [200]


def test_spans_carry_the_iteration_they_belong_to():
    rec = Recorder()
    for trace in (1, 2):
        rec.trace = trace
        with rec.span("rmi.handle"):
            pass
    assert sorted(rec.by_trace("rmi.handle")) == [1, 2]


def test_worse_by_follows_the_metric_direction():
    assert worse_by(100.0, 112.0, "lower") == pytest.approx(0.12)
    assert worse_by(100.0, 112.0, "higher") == pytest.approx(-0.12)


def test_a_sets_spread_is_the_gap_between_its_two_best_launches():
    assert confirmation_gap([100.0, 104.0, 150.0], "lower") == pytest.approx(0.04)
    assert confirmation_gap([1500.0, 900.0, 1470.0], "higher") == pytest.approx(0.02)
    assert confirmation_gap([7.0], "lower") == 0.0


def test_verdicts():
    tight_a, tight_b = [100.0, 101.0, 102.0], [103.0, 104.0, 105.0]
    assert verdict(101.0, 104.0, tight_a, tight_b, "lower", 0.10) == "ok"
    assert verdict(101.0, 120.0, tight_a, [119.0, 120.0, 121.0], "lower", 0.10) == "worse"
    # No second launch confirms the best one within the bound: nothing
    # can be said…
    noisy = [88.0, 101.0, 115.0]
    assert verdict(101.0, 104.0, noisy, tight_b, "lower", 0.10) == "unresolved"
    # …unless every launch of the second set beats every launch of the first.
    assert verdict(101.0, 80.0, noisy, [79.0, 80.0, 81.0], "lower", 0.10) == "ok"
    assert verdict(1500.0, 1300.0, [1490.0, 1510.0], [1290.0, 1310.0], "higher", 0.10) == "worse"
