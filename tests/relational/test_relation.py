"""Unit tests for the Relation container."""

import pytest

from repro.relational.relation import Relation, SchemaError


@pytest.fixture()
def r():
    return Relation(("a", "b"), [(1, "x"), (2, "y"), (1, "z")], name="R")


def test_len_and_iteration(r):
    assert len(r) == 3
    assert list(r) == [(1, "x"), (2, "y"), (1, "z")]


def test_contains(r):
    assert (1, "x") in r
    assert (9, "x") not in r


def test_duplicate_schema_rejected():
    with pytest.raises(SchemaError):
        Relation(("a", "a"), [])


def test_row_arity_checked():
    with pytest.raises(SchemaError):
        Relation(("a", "b"), [(1,)])


def test_extend_checks_arity(r):
    r.extend([(3, "w")])
    assert len(r) == 4
    with pytest.raises(SchemaError):
        r.extend([(3,)])


def test_position_and_positions(r):
    assert r.position("b") == 1
    assert r.positions(["b", "a"]) == [1, 0]
    with pytest.raises(SchemaError):
        r.position("zzz")


def test_column_and_distinct(r):
    assert r.column("a") == [1, 2, 1]
    assert r.distinct_values("a") == [1, 2]


def test_project_dedup():
    r = Relation(("a", "b"), [(1, 1), (1, 2)])
    assert r.project(["a"]).rows == [(1,)]
    assert r.project(["a"], dedup=False).rows == [(1,), (1,)]


def test_project_reorders_columns(r):
    projected = r.project(["b", "a"])
    assert projected.schema == ("b", "a")
    assert projected.rows[0] == ("x", 1)


def test_select_predicate(r):
    kept = r.select(lambda row: row["a"] == 1)
    assert kept.rows == [(1, "x"), (1, "z")]


def test_select_eq(r):
    assert r.select_eq("b", "y").rows == [(2, "y")]


def test_select_eq_keeps_row_order_and_owns_its_rows(r):
    kept = r.select_eq("a", 1)
    assert kept.rows == [(1, "x"), (1, "z")]
    kept.rows.append((1, "q"))  # the caller's list, not the index's
    assert r.select_eq("a", 1).rows == [(1, "x"), (1, "z")]
    assert r.select_eq("a", 9).rows == []


def test_select_eq_sees_a_row_appended_by_extend(r):
    assert r.select_eq("a", 3).rows == []  # scans a
    assert r.select_eq("a", 3).rows == []  # indexes a
    r.extend([(3, "w"), (1, "v")])
    assert r.select_eq("a", 3).rows == [(3, "w")]
    assert r.select_eq("a", 1).rows == [(1, "x"), (1, "z"), (1, "v")]


def test_rename(r):
    renamed = r.rename({"a": "alpha"})
    assert renamed.schema == ("alpha", "b")
    assert renamed.rows == r.rows


def test_distinct():
    r = Relation(("a",), [(1,), (1,), (2,)])
    assert r.distinct().rows == [(1,), (2,)]


def test_equality_ignores_column_order():
    r1 = Relation(("a", "b"), [(1, "x")])
    r2 = Relation(("b", "a"), [("x", 1)])
    assert r1 == r2


def test_equality_detects_difference():
    r1 = Relation(("a",), [(1,)])
    r2 = Relation(("a",), [(2,)])
    assert r1 != r2


def test_relation_unhashable(r):
    with pytest.raises(TypeError):
        hash(r)


def test_as_dicts(r):
    assert r.as_dicts()[0] == {"a": 1, "b": "x"}


def test_pretty_contains_rows(r):
    text = r.pretty()
    assert "a" in text and "x" in text


def test_pretty_truncates():
    r = Relation(("a",), [(i,) for i in range(30)])
    assert "more rows" in r.pretty(limit=5)
