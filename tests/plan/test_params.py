"""Parameter discovery, binding, and the SQL placeholder front-end."""

import pytest

from repro import col, connect, param
from repro.expr import Param, UnboundParamError
from repro.plan import ParameterError, bind_params, collect_params
from repro.relational.relation import Relation
from repro.sql import parse_query
from repro.sql.lexer import SQLSyntaxError

ENGINES = ("fdb", "fdb-factorised", "rdb", "rdb-hash", "sqlite")


@pytest.fixture()
def session():
    rows = [("a", 1, 5), ("a", 2, 9), ("b", 1, 30), ("c", 4, 2)]
    return connect(Relation(("g", "k", "price"), rows, name="R"))


# ---------------------------------------------------------------------------
# Collection and binding
# ---------------------------------------------------------------------------
def test_collect_params_clause_order(session):
    q = (
        session.query("R")
        .where("price", ">", param("floor"))
        .where(col("price") * param("rate"), "<", 100)
        .group_by("g")
        .sum("price", "rev")
        .having("rev", ">", param("cut"))
        .to_query()
    )
    assert collect_params(q) == ("floor", "rate", "cut")


def test_bind_params_replaces_everything(session):
    q = (
        session.query("R")
        .where("price", ">", param("floor"))
        .group_by("g")
        .sum("price", "rev")
        .to_query()
    )
    bound = bind_params(q, {"floor": 4})
    assert collect_params(bound) == ()
    assert bound.comparisons[0].value == 4


def test_bind_params_missing_and_unknown(session):
    q = (
        session.query("R")
        .where("price", ">", param("floor"))
        .group_by("g")
        .sum("price", "rev")
        .to_query()
    )
    with pytest.raises(ParameterError, match="missing values.*:floor"):
        bind_params(q, {})
    with pytest.raises(ParameterError, match="unknown parameters.*:floot"):
        bind_params(q, {"floor": 1, "floot": 2})


def test_arithmetic_params_must_be_numeric(session):
    q = (
        session.query("R")
        .where(col("price") * param("rate"), ">", 10)
        .select("g")
        .to_query()
    )
    with pytest.raises(ParameterError, match="must bind to a number"):
        bind_params(q, {"rate": "two"})


def test_param_nested_in_condition_value_rejected(session):
    q = (
        session.query("R")
        .where("price", ">", param("floor") + 1)
        .select("g")
        .to_query()
    )
    with pytest.raises(ParameterError, match="move the arithmetic"):
        collect_params(q)
    with pytest.raises(ParameterError, match="move the arithmetic"):
        session.prepare(q)
    # The canonical rewrite works: arithmetic on the left side.
    ok = (
        session.query("R")
        .where(col("price") - 1, ">", param("floor"))
        .select("g")
        .to_query()
    )
    assert collect_params(ok) == ("floor",)
    rows = session.prepare(ok).run(floor=4).rows
    assert sorted(rows) == [("a",), ("b",)]


def test_aggregate_argument_params_rejected(session):
    q = (
        session.query("R")
        .group_by("g")
        .sum(col("price") * param("rate"), alias="rev")
        .to_query()
    )
    with pytest.raises(ParameterError, match="aggregate argument"):
        collect_params(q)
    with pytest.raises(ParameterError, match="aggregate argument"):
        session.prepare(q)


def test_unbound_param_evaluation_raises_clearly():
    condition_value = Param("x")
    from repro.query import Comparison

    with pytest.raises(UnboundParamError, match="prepared query"):
        Comparison("price", ">", condition_value).test(5)
    with pytest.raises(UnboundParamError, match=":x"):
        Param("x").evaluate({})


def test_param_names_validated():
    with pytest.raises(ValueError, match="identifiers"):
        param("not valid")
    with pytest.raises(ValueError, match="identifiers"):
        param("1st")


# ---------------------------------------------------------------------------
# SQL placeholders
# ---------------------------------------------------------------------------
def test_sql_named_placeholders_parse():
    q = parse_query(
        "SELECT g, SUM(price) AS rev FROM R WHERE price > :floor GROUP BY g"
    )
    assert collect_params(q) == ("floor",)
    assert q.comparisons[0].value == Param("floor")


def test_sql_anonymous_placeholders_number_in_textual_order():
    q = parse_query(
        "SELECT g FROM R WHERE price > ? AND k < ?"
    )
    assert collect_params(q) == ("p1", "p2")


def test_sql_mixing_placeholder_styles_rejected():
    with pytest.raises(SQLSyntaxError, match="cannot mix"):
        parse_query("SELECT g FROM R WHERE price > ? AND k < :cap")
    with pytest.raises(SQLSyntaxError, match="cannot mix"):
        parse_query("SELECT g FROM R WHERE price > :floor AND k < ?")


def test_sql_param_in_arithmetic_and_having():
    q = parse_query(
        "SELECT g, SUM(price) AS rev FROM R WHERE price * :rate > 10 "
        "GROUP BY g HAVING rev > :cut"
    )
    assert collect_params(q) == ("rate", "cut")


def test_sql_bad_param_positions():
    with pytest.raises(SQLSyntaxError, match="parameter name"):
        parse_query("SELECT g FROM R WHERE price > :1")
    with pytest.raises(SQLSyntaxError, match="INSERT VALUES"):
        from repro.sql import parse_statement

        parse_statement("INSERT INTO R VALUES (?, ?, ?)")


def test_generated_sql_renders_placeholders_and_round_trips(session):
    q = (
        session.query("R")
        .where("price", ">", param("floor"))
        .group_by("g")
        .sum("price", "rev")
        .to_query()
    )
    from repro.sql.generator import query_to_sql

    sql = query_to_sql(q)
    assert ":floor" in sql
    reparsed = parse_query(sql)
    assert collect_params(reparsed) == ("floor",)
    # The parse → generate cycle is a fixed point.
    assert query_to_sql(reparsed) == sql


# ---------------------------------------------------------------------------
# Cross-engine parity with parameters
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("engine", ENGINES)
def test_param_parity_across_engines(session, engine):
    with connect(session.database, engine=engine) as other:
        prepared = other.prepare(
            "SELECT g, SUM(price) AS rev FROM R WHERE price > :floor GROUP BY g"
        )
        assert sorted(prepared.run(floor=4).rows) == [("a", 14), ("b", 30)]
        assert sorted(prepared.run(floor=0).rows) == [
            ("a", 14),
            ("b", 30),
            ("c", 2),
        ]
        # Positional binding follows declaration order.
        assert sorted(prepared.run(4).rows) == [("a", 14), ("b", 30)]


@pytest.mark.parametrize("engine", ENGINES)
def test_string_params(session, engine):
    with connect(session.database, engine=engine) as other:
        prepared = other.prepare(
            "SELECT SUM(price) AS total FROM R WHERE g = :which"
        )
        assert prepared.run(which="a").rows == [(14,)]
        assert prepared.run(which="b").rows == [(30,)]


def test_run_binding_errors(session):
    prepared = session.prepare(
        "SELECT g FROM R WHERE price > :floor AND k < :cap"
    )
    with pytest.raises(ParameterError, match="positional"):
        prepared.run(1, 2, 3)
    with pytest.raises(ParameterError, match="both positionally and by name"):
        prepared.run(1, floor=2, cap=3)
    with pytest.raises(ParameterError, match="missing"):
        prepared.run(floor=1)


def test_one_shot_execute_with_params(session):
    result = session.execute(
        "SELECT g, SUM(price) AS rev FROM R WHERE price > ? GROUP BY g",
        params={"p1": 4},
    )
    assert sorted(result.rows) == [("a", 14), ("b", 30)]
    result = session.sql(
        "SELECT g, SUM(price) AS rev FROM R WHERE price > :floor GROUP BY g",
        params={"floor": 4},
    )
    assert sorted(result.rows) == [("a", 14), ("b", 30)]
