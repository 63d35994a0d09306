"""Unit tests for multi-key asc/desc sorting and limit."""

import pytest

from repro.relational.relation import Relation
from repro.relational.sort import (
    SortKey,
    is_sorted_by,
    limit_rows,
    normalise_order,
    sort_relation,
    sort_rows,
)


@pytest.fixture()
def r():
    return Relation(
        ("a", "b", "c"),
        [(2, "x", 1), (1, "y", 2), (1, "x", 3), (2, "y", 4)],
    )


def test_normalise_order_accepts_three_forms():
    keys = normalise_order(["a", ("b", "desc"), SortKey("c", True)])
    assert keys == [SortKey("a"), SortKey("b", True), SortKey("c", True)]


def test_normalise_order_direction_spellings():
    assert normalise_order([("a", "DESC")])[0].descending
    assert normalise_order([("a", "descending")])[0].descending
    assert not normalise_order([("a", "asc")])[0].descending


def test_sort_single_key(r):
    rows = sort_rows(r.rows, r.schema, ["a"])
    assert [row[0] for row in rows] == [1, 1, 2, 2]


def test_sort_lexicographic(r):
    rows = sort_rows(r.rows, r.schema, ["a", "b"])
    assert rows == [(1, "x", 3), (1, "y", 2), (2, "x", 1), (2, "y", 4)]


def test_sort_mixed_directions(r):
    rows = sort_rows(r.rows, r.schema, [("a", "desc"), "b"])
    assert rows == [(2, "x", 1), (2, "y", 4), (1, "x", 3), (1, "y", 2)]


def test_sort_descending_strings(r):
    rows = sort_rows(r.rows, r.schema, [("b", "desc"), ("a", "desc")])
    assert rows == [(2, "y", 4), (1, "y", 2), (2, "x", 1), (1, "x", 3)]


def test_sort_relation_validates_attrs(r):
    with pytest.raises(Exception):
        sort_relation(r, ["nope"])


def test_sort_relation_returns_copy(r):
    sorted_rel = sort_relation(r, ["a"])
    assert sorted_rel is not r
    assert r.rows[0] == (2, "x", 1)  # original untouched


def test_limit_rows():
    assert limit_rows(iter([1, 2, 3]), 2) == [1, 2]
    assert limit_rows([1], 5) == [1]
    assert limit_rows([1, 2], 0) == []


def test_limit_rejects_negative():
    with pytest.raises(ValueError):
        limit_rows([1], -1)


def test_is_sorted_by(r):
    sorted_rel = sort_relation(r, ["a", ("b", "desc")])
    assert is_sorted_by(sorted_rel, ["a", ("b", "desc")])
    assert not is_sorted_by(sorted_rel, ["b"])


def test_sort_key_str():
    assert str(SortKey("a")) == "a↑"
    assert str(SortKey("a", True)) == "a↓"


def test_sort_stability_beyond_keys(r):
    # Rows tied on the sort keys keep their input order (stable sorts).
    rows = sort_rows(r.rows, r.schema, ["a"])
    assert rows[0] == (1, "y", 2) and rows[1] == (1, "x", 3)


def test_is_sorted_by_checks_every_key():
    relation = Relation(("a", "b"), [(1, 2), (1, 1)])
    assert is_sorted_by(relation, ["a"])
    assert not is_sorted_by(relation, ["a", "b"])
    assert is_sorted_by(relation, ["a", ("b", "desc")])
