"""Cross-engine parity: empty-input aggregates, numeric literals, LIMIT 0.

Every engine — fdb, fdb-factorised, rdb, rdb-hash and sqlite — must
agree on these SQL corner cases: ungrouped aggregates over zero rows
yield one row (COUNT = 0, everything else NULL), grouped aggregates over zero rows yield zero
rows, scientific-notation literals parse and round-trip, and LIMIT 0
returns the empty result.
"""

import pytest

from repro import col, connect
from repro.query import QueryError
from repro.relational.relation import Relation
from repro.sql import parse_query
from repro.sql.generator import query_to_sql
from repro.sql.lexer import SQLSyntaxError, tokenize

ENGINES = ("fdb", "fdb-factorised", "rdb", "rdb-hash", "sqlite")


@pytest.fixture(scope="module")
def session():
    rows = [("a", 1, 5), ("a", 2, 9), ("b", 1, 30)]
    session = connect(
        Relation(("g", "k", "price"), rows, name="R"), engine="fdb"
    )
    yield session
    session.close()


def _run(session, sql, engine):
    with connect(session.database, engine=engine) as other:
        return other.sql(sql)


# ---------------------------------------------------------------------------
# Empty-input aggregates
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("engine", ENGINES)
def test_ungrouped_aggregates_over_empty_input(session, engine):
    result = _run(
        session,
        "SELECT AVG(price) AS a, SUM(price) AS s, MIN(price) AS lo, "
        "MAX(price) AS hi, COUNT(*) AS n FROM R WHERE price > 1000",
        engine,
    )
    assert result.rows == [(None, None, None, None, 0)]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("function", ["AVG", "SUM", "MIN", "MAX"])
def test_single_empty_aggregate_is_null(session, engine, function):
    result = _run(
        session,
        f"SELECT {function}(price) AS v FROM R WHERE price > 1000",
        engine,
    )
    assert result.rows == [(None,)]


@pytest.mark.parametrize("engine", ENGINES)
def test_grouped_aggregates_over_empty_input(session, engine):
    result = _run(
        session,
        "SELECT g, SUM(price) AS s FROM R WHERE price > 1000 GROUP BY g",
        engine,
    )
    assert result.rows == []


@pytest.mark.parametrize("engine", ENGINES)
def test_empty_expression_aggregate(session, engine):
    result = _run(
        session,
        "SELECT SUM(price * 2 + 1) AS s FROM R WHERE price > 1000",
        engine,
    )
    assert result.rows == [(None,)]


@pytest.mark.parametrize("engine", ENGINES)
def test_empty_aggregate_with_order_by_alias(session, engine):
    result = _run(
        session,
        "SELECT SUM(price) AS s FROM R WHERE price > 1000 ORDER BY s",
        engine,
    )
    assert result.rows == [(None,)]


@pytest.mark.parametrize("engine", ENGINES)
def test_having_filters_the_null_row(session, engine):
    result = _run(
        session,
        "SELECT SUM(price) AS s FROM R WHERE price > 1000 HAVING s > 0",
        engine,
    )
    assert result.rows == []


def test_builder_empty_aggregates_match_across_engines(session):
    builder = (
        session.query("R").where("price", ">", 1000).avg("price", "mean")
    )
    for engine in ENGINES:
        with connect(session.database, engine=engine) as other:
            assert other.execute(builder.to_query()).rows == [(None,)], engine


# ---------------------------------------------------------------------------
# Scientific-notation literals
# ---------------------------------------------------------------------------
def test_lexer_accepts_scientific_notation():
    kinds = [(t.kind, t.value) for t in tokenize("1e9 2.5E-3 1E+6 -4e2")]
    assert kinds[:-1] == [
        ("NUMBER", "1e9"),
        ("NUMBER", "2.5E-3"),
        ("NUMBER", "1E+6"),
        ("NUMBER", "-4e2"),
    ]


def test_lexer_exponent_needs_digits():
    # "1e" is not an exponent: NUMBER 1 followed by IDENT e.
    kinds = [(t.kind, t.value) for t in tokenize("1e")]
    assert kinds[:-1] == [("NUMBER", "1"), ("IDENT", "e")]


def test_scientific_literals_parse_and_compare():
    query = parse_query("SELECT g FROM R WHERE price < 1e9 AND price > 2.5E-3")
    values = sorted(c.value for c in query.comparisons)
    assert values == [0.0025, 1000000000.0]


@pytest.mark.parametrize("engine", ENGINES)
def test_scientific_literals_agree_across_engines(session, engine):
    result = _run(
        session,
        "SELECT g, SUM(price) AS s FROM R WHERE price < 1e9 GROUP BY g",
        engine,
    )
    assert sorted(result.rows) == [("a", 14), ("b", 30)]


def test_scientific_literals_round_trip():
    for text in (
        "SELECT g FROM R WHERE price < 1e9",
        "SELECT g FROM R WHERE price > 2.5E-3",
        "SELECT g FROM R WHERE price < 1E+6",
        "SELECT SUM(price * 1e2) AS s FROM R",
    ):
        sql = query_to_sql(parse_query(text))
        assert query_to_sql(parse_query(sql)) == sql  # fixed point


def test_malformed_exponent_still_errors():
    with pytest.raises(SQLSyntaxError):
        parse_query("SELECT g FROM R WHERE price < 1e9x9")


# ---------------------------------------------------------------------------
# LIMIT 0
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("engine", ENGINES)
def test_sql_limit_zero(session, engine):
    assert _run(session, "SELECT g FROM R LIMIT 0", engine).rows == []
    assert (
        _run(
            session,
            "SELECT g, SUM(price) AS s FROM R GROUP BY g "
            "ORDER BY s DESC LIMIT 0",
            engine,
        ).rows
        == []
    )


def test_builder_limit_zero(session):
    assert session.query("R").limit(0).run().rows == []
    assert session.query("R").order_by("price").limit(0).run().rows == []


def test_builder_limit_still_rejects_bad_values(session):
    with pytest.raises(QueryError, match="non-negative"):
        session.query("R").limit(-3)
    with pytest.raises(QueryError, match="integer"):
        session.query("R").limit(1.5)


def test_expression_where_with_literal_forms(session):
    # The expression path accepts the same literal values the SQL
    # front-end now produces.
    rows = (
        session.query("R")
        .where(col("price") * 1.0, "<", 1e9)
        .group_by("g")
        .sum("price", "s")
        .run()
        .rows
    )
    assert sorted(rows) == [("a", 14), ("b", 30)]
