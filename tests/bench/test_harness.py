"""Unit tests for the timing and table utilities of the experiments."""

import pytest

from repro.bench.experiments import (
    REPEATS,
    BenchResult,
    Series,
    fit_loglog_slope,
    render_series,
    render_table,
    time_call_stats,
)


def test_time_call_returns_best_and_result():
    calls = []

    def work():
        calls.append(1)
        return "out"

    seconds, _, result = time_call_stats(work)
    assert result == "out"
    assert len(calls) == REPEATS
    assert seconds >= 0


def test_time_call_at_least_once():
    _, _, result = time_call_stats(lambda: 7, repeats=0)
    assert result == 7


def test_bench_result_cell():
    assert BenchResult("e", "q", 0.12345).cell() == "0.1235s"  # rounded


def test_series_accumulates():
    series = Series("s")
    series.add(1, 2.0)
    series.add(2, 4.0)
    assert series.points == [(1, 2.0), (2, 4.0)]


def test_render_table_alignment():
    table = render_table(
        "Title",
        ["engine-a", "b"],
        ["q1", "q2"],
        {("engine-a", "q1"): "1.0", ("b", "q2"): "2.0"},
        row_header="engine",
    )
    lines = table.splitlines()
    assert lines[0] == "Title"
    assert "engine" in lines[1]
    assert all("|" in line for line in lines[1:] if "-+-" not in line)


def test_render_series_table():
    s1 = Series("flat")
    s1.add(1, 10)
    s1.add(2, 40)
    text = render_series("sizes", [s1], "scale")
    assert "flat" in text and "10.0000" in text and "40.0000" in text


def test_fit_loglog_slope_linear():
    assert fit_loglog_slope([(1, 3), (2, 6), (4, 12)]) == pytest.approx(1.0)


def test_fit_loglog_slope_degenerate():
    assert fit_loglog_slope([(1, 5), (1, 5)]) == 0.0


def test_time_call_stats_returns_best_and_median():
    calls = []

    def work():
        calls.append(1)
        return "result"

    best, median, result = time_call_stats(work, repeats=5)
    assert len(calls) == 5
    assert result == "result"
    assert 0 <= best <= median


def test_time_call_stats_best_and_median_of_the_samples(monkeypatch):
    # Scripted clock: three calls taking 3, 1 and 2 ticks.
    from repro.bench import experiments

    ticks = iter([0, 3, 10, 11, 20, 22])

    class FakeClock:
        @staticmethod
        def now():
            return next(ticks)

    monkeypatch.setattr(experiments, "clock", FakeClock)
    best, median, result = time_call_stats(lambda: "r", repeats=3)
    assert (best, median, result) == (1, 2, "r")


def test_measure_records_rows_scale_and_median():
    from repro.bench.experiments import _measure

    runners = [("A", lambda query: 4), ("B", lambda query: 5)]
    results = _measure(runners, {"Q1": None, "Q2": None}, repeats=2, scale=0.5)
    assert [(r.engine, r.query, r.rows) for r in results] == [
        ("A", "Q1", 4), ("A", "Q2", 4), ("B", "Q1", 5), ("B", "Q2", 5)
    ]
    assert all(r.scale == 0.5 for r in results)
    assert all(0 <= r.seconds <= r.median for r in results)
