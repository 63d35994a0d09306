"""Tests for the engine rows of the experiments: registry engines plus
Figure 6's two eager-aggregation ("man") rows."""

import pytest

from repro.api import create_engine
from repro.bench.experiments import _prepared, run_fig5, run_fig6
from repro.data.workloads import AGG_QUERIES, WORKLOAD, build_workload_database


def test_fo_row_reports_singletons():
    report = run_fig5(scale=0.1, repeats=1)
    rows = {(r.engine, r.query): r.rows for r in report.results}
    # FDB f/o counts the singletons of its factorised result.
    engine = create_engine("fdb-factorised", optimizer="greedy")
    query = WORKLOAD["Q2"].query
    run = engine.run(query, build_workload_database(scale=0.1))
    assert rows["FDB f/o", "Q2"] == run.factorised.size() > 0


def test_fdb_rows_are_planned_by_the_greedy_optimiser():
    database = build_workload_database(scale=0.1)
    query = WORKLOAD["Q2"].query
    for name in ("fdb", "fdb-factorised"):
        explain = _prepared(name, database).explain(query, database)
        assert "optimizer: greedy" in explain, name


def test_eager_adapters():
    # Over Orders ⋈ Packages ⋈ Items the "man" rows (SQLite fed the
    # eager SQL text, RDB running the eager plan) agree with rdb-hash.
    report = run_fig6(scale=0.1, repeats=1)
    rows = {(r.engine, r.query): r.rows for r in report.results}
    for name in AGG_QUERIES:
        expected = rows["RDB-hash", name]
        assert expected > 0
        assert rows["SQLite man", name] == expected, name
        assert rows["RDB-hash man", name] == expected, name


def test_sqlite_requires_prepare():
    # The "SQLite man" row reads the backend's connection directly.
    with pytest.raises(RuntimeError):
        create_engine("sqlite").connection
