"""Expressions through the canonical session API: parity and surface.

Acceptance: ``SUM(price * qty)``-style queries run through
``connect()`` on the fdb, rdb, and sqlite engines with identical
results, and the fdb path computes them without full flattening when
the attributes live on independent branches (trace inspection).
"""

import warnings

import pytest

from repro import QueryError, Relation, col, connect
from repro.core.engine import FDBEngine
from repro.query import aggregate


PARITY_ENGINES = ("fdb", "rdb", "sqlite")


@pytest.fixture()
def session():
    return connect(
        [
            Relation(
                ("k", "price"), [(1, 10), (1, 20), (2, 5), (3, 7)], "S"
            ),
            Relation(
                ("k", "qty"), [(1, 2), (1, 3), (2, 4), (3, 1)], "T"
            ),
        ]
    )


def revenue_builder(session):
    return (
        session.query("S", "T")
        .group_by("k")
        .sum(col("price") * col("qty"), alias="revenue")
    )


def test_sum_product_parity_across_engines(session):
    results = {
        engine: sorted(revenue_builder(session).run(engine=engine).rows)
        for engine in PARITY_ENGINES + ("rdb-hash", "fdb-factorised")
    }
    expected = [(1, 150), (2, 20), (3, 7)]
    for engine, rows in results.items():
        assert rows == expected, f"{engine} disagrees: {rows}"


def test_fdb_path_avoids_flattening_on_independent_branches(session):
    result = revenue_builder(session).run(engine="fdb")
    stats = result.expression_stats
    assert stats is not None
    assert stats.flatten_events == 0
    assert stats.native_terms > 0


def test_expression_provenance_in_explain(session):
    result = revenue_builder(session).run(engine="fdb")
    text = result.explain()
    assert "expression: revenue ← sum(price * qty)" in text
    assert "factorisation-native" in text


def test_builder_expression_validation(session):
    with pytest.raises(QueryError, match="unknown attribute"):
        session.query("S").sum(col("typo") * col("price"), "x")


def test_builder_expression_where_parity(session):
    rows = {}
    for engine in PARITY_ENGINES:
        result = (
            session.query("S", "T")
            .where(col("price") * 2, ">", 10)
            .group_by("k")
            .sum("price", "s")
            .run(engine=engine)
        )
        rows[engine] = sorted(result.rows)
    assert rows["fdb"] == rows["rdb"] == rows["sqlite"]
    assert rows["fdb"] == [(1, 60), (3, 7)]


def test_builder_computed_columns_parity(session):
    for engine in PARITY_ENGINES:
        result = (
            session.query("S")
            .select("k", (col("price") * 2, "double"))
            .run(engine=engine)
        )
        assert result.schema == ("k", "double")
        assert sorted(result.rows) == [(1, 20), (1, 40), (2, 10), (3, 14)]


def test_builder_bare_col_select_is_projection(session):
    result = session.query("S").select(col("k")).run()
    assert result.schema == ("k",)


def test_sql_expression_through_session(session):
    for engine in PARITY_ENGINES:
        result = session.sql(
            "SELECT k, SUM(price * qty) AS revenue FROM S NATURAL JOIN T "
            "GROUP BY k",
            engine=engine,
        )
        assert sorted(result.rows) == [(1, 150), (2, 20), (3, 7)]


def test_division_parity_with_sqlite(session):
    # True division everywhere, including the generated SQL fed to
    # sqlite (integer columns would otherwise divide integrally).
    for engine in PARITY_ENGINES:
        result = (
            session.query("S")
            .group_by("k")
            .sum(col("price") / 4, alias="q")
            .run(engine=engine)
        )
        for key, value in result.rows:
            assert value == pytest.approx(
                {1: 7.5, 2: 1.25, 3: 1.75}[key]
            ), engine


def test_string_arguments_still_work_everywhere(session):
    for engine in PARITY_ENGINES:
        result = (
            session.query("S").group_by("k").sum("price", "s").run(engine=engine)
        )
        assert sorted(result.rows) == [(1, 30), (2, 5), (3, 7)]


def test_expression_min_parity(session):
    for engine in PARITY_ENGINES:
        result = (
            session.query("S", "T")
            .group_by("k")
            .min(col("price") + col("qty"), alias="lo")
            .run(engine=engine)
        )
        assert sorted(result.rows) == [(1, 12), (2, 9), (3, 8)]


# ---------------------------------------------------------------------------
# Engine-state shims are gone: execute_traced is the supported surface
# ---------------------------------------------------------------------------
def test_last_plan_shims_removed(session):
    engine = FDBEngine()
    query = revenue_builder(session).to_query()
    engine.execute(query, session.database)
    assert not hasattr(engine, "last_plan")
    assert not hasattr(engine, "last_trace")


def test_execute_traced_does_not_warn(session):
    engine = FDBEngine()
    query = revenue_builder(session).to_query()
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        result, plan, trace = engine.execute_traced(query, session.database)
    assert plan is not None and trace is not None
    assert sorted(result.rows) == [(1, 150), (2, 20), (3, 7)]


# ---------------------------------------------------------------------------
# Review regressions
# ---------------------------------------------------------------------------
def test_factorised_output_rejects_computed_alias_order(session):
    builder = (
        session.query("S", "T")
        .select("k", (col("price") * col("qty"), "p"))
        .order_by("p", desc=True)
        .limit(3)
    )
    with pytest.raises(QueryError, match="computed column"):
        builder.run(engine="fdb-factorised")
    # The flat engines agree on the ordered, limited result.
    rows = {
        engine: builder.run(engine=engine).rows
        for engine in PARITY_ENGINES
    }
    assert rows["fdb"] == rows["rdb"] == rows["sqlite"]


def test_having_arithmetic_rejected_cleanly(session):
    with pytest.raises(QueryError, match="HAVING supports aggregate"):
        session.sql(
            "SELECT k, SUM(price) AS r FROM S GROUP BY k HAVING r + 1 > 2"
        )


def test_constant_computed_columns(session):
    from repro import lit

    for engine in PARITY_ENGINES:
        assert session.sql("SELECT 2 * 3 AS six FROM S", engine=engine).rows == [
            (6,)
        ], engine
    assert session.query("S").select((lit(2) * 3, "six")).run().rows == [(6,)]


def test_select_list_order_preserved(session):
    for engine in PARITY_ENGINES:
        result = session.sql("SELECT price * 2 AS d, k FROM S", engine=engine)
        assert result.schema == ("d", "k"), engine
    result = session.query("S").select((col("price") * 2, "d"), "k").run()
    assert result.schema == ("d", "k")


def test_non_injective_computed_column_dedups(session):
    for engine in PARITY_ENGINES + ("rdb-hash", "fdb-factorised"):
        result = (
            session.query("S").select((col("price") * 0, "z")).run(engine=engine)
        )
        assert result.rows == [(0,)], engine
