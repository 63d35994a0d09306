"""Smoke tests for the experiment harness at a tiny scale."""

import pytest

from repro.bench.experiments import (
    fit_loglog_slope,
    render_table,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig8,
    run_optimizer_study,
    run_sizes,
)


def test_run_sizes_shape():
    report = run_sizes(scales=[0.1, 0.2])
    # A polynomial succinctness gap, at a margin, and at every scale.
    assert report.extras["flat_exponent"] > report.extras["fact_exponent"] + 0.2
    flat, fact, _ = report.extras["series"]
    assert all(f < n for (_, f), (_, n) in zip(fact.points, flat.points))
    assert "factorised" in report.table


def test_run_fig5(tiny_db_scale=0.1):
    report = run_fig5(scale=tiny_db_scale, repeats=1)
    engines = {r.engine for r in report.results}
    assert {"FDB", "FDB f/o", "SQLite"} <= engines
    assert report.seconds("FDB", "Q2") > 0
    assert "Q5" in report.table
    # Every flat engine returns the same, non-empty rows (FDB f/o
    # counts singletons).
    for name in ("Q1", "Q2", "Q3", "Q4", "Q5"):
        counts = {
            r.rows for r in report.results
            if r.query == name and r.engine != "FDB f/o"
        }
        assert len(counts) == 1 and counts.pop() > 0, name


def test_run_fig6():
    report = run_fig6(scale=0.1, repeats=1)
    engines = {r.engine for r in report.results}
    assert "SQLite man" in engines and "RDB-hash man" in engines


def test_run_fig7():
    report = run_fig7(scale=0.1, repeats=1)
    queries = {r.query for r in report.results}
    assert {"Q6", "Q7", "Q8", "Q9"} <= queries
    assert all(r.rows > 0 for r in report.results)


def test_run_fig8():
    report = run_fig8(scale=0.1, repeats=1)
    engines = {r.engine for r in report.results}
    assert "FDB lim" in engines
    # LIMIT 10 must not be slower than full enumeration for FDB (the
    # constant-delay claim) — allow generous noise at tiny scale.
    assert report.seconds("FDB lim", "Q10") <= report.seconds("FDB", "Q10") * 2


def test_optimizer_study_all_greedy_optimal():
    report = run_optimizer_study(scale=0.1)
    for name, stats in report.extras.items():
        assert (
            stats["greedy_exponent"] <= stats["exhaustive_exponent"] + 1e-9
        ), name


def test_fit_loglog_slope_exact():
    points = [(1, 10), (2, 40), (4, 160)]  # y = 10·x²
    assert fit_loglog_slope(points) == pytest.approx(2.0)


def test_render_table_missing_cells():
    table = render_table("t", ["r1"], ["c1", "c2"], {("r1", "c1"): "x"})
    assert "-" in table and "x" in table


def _rows_by_query(report):
    counts = {}
    for result in report.results:
        counts.setdefault((result.query, result.scale), set()).add(result.rows)
    return counts


def test_run_fig5_engine_rows():
    # The paper's five rows, named as the registry names its engines.
    report = run_fig5(scale=0.1, repeats=1)
    engines = list(dict.fromkeys(r.engine for r in report.results))
    assert engines == ["FDB f/o", "FDB", "SQLite", "RDB-sort", "RDB-hash"]


def test_run_fig4_engines_agree_at_every_scale():
    report = run_fig4(scales=(0.1, 0.2), repeats=1)
    series = report.extras["series"]
    assert set(series) == {
        f"{engine}: {query}"
        for engine in ("FDB", "SQLite", "RDB-sort", "RDB-hash")
        for query in ("Q2", "Q3")
    }
    assert all([x for x, _ in s.points] == [0.1, 0.2] for s in series.values())
    for key, counts in _rows_by_query(report).items():
        assert len(counts) == 1 and counts.pop() > 0, key


def test_run_fig7_engines_agree_on_rows():
    report = run_fig7(scale=0.1, repeats=1)
    for key, counts in _rows_by_query(report).items():
        assert len(counts) == 1, key


def test_run_fig8_limit_returns_ten_rows():
    report = run_fig8(scale=0.1, repeats=1)
    full, limited = {}, {}
    for result in report.results:
        side = limited if result.engine.endswith(" lim") else full
        side.setdefault(result.query, set()).add(result.rows)
    assert set(full) == set(limited) == {"Q10", "Q11", "Q12", "Q13"}
    for name in full:
        # Every engine agrees, and LIMIT 10 cuts a longer result to 10.
        assert limited[name] == {10}, name
        assert len(full[name]) == 1 and full[name].pop() > 10, name
