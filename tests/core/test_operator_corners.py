"""Corner cases of the operators: argument orders, class nodes, depth."""

import pytest

from repro.core import operators as ops
from repro.core.build import factorise, factorise_path
from repro.core.enumerate import iter_tuples
from repro.core.ftree import build_ftree
from repro.query import Comparison
from repro.relational.relation import Relation


def test_merge_roots_reversed_argument_order():
    r = Relation(("a",), [(1,), (2,), (3,)], "R")
    s = Relation(("b",), [(2,), (3,), (4,)], "S")
    fact = ops.product(factorise_path(r, "R"), factorise_path(s, "S"))
    merged = ops.merge_siblings(fact, "b", "a")  # B first
    merged.validate()
    assert sorted(merged.iter_tuples()) == [(2, 2), (3, 3)]


def test_merge_three_roots_positional_bookkeeping():
    rels = [
        Relation((name,), [(1,), (2,)], name.upper())
        for name in ("a", "b", "c")
    ]
    fact = ops.product(
        ops.product(factorise_path(rels[0], "A"), factorise_path(rels[1], "B")),
        factorise_path(rels[2], "C"),
    )
    merged = ops.merge_siblings(fact, "a", "c")  # non-adjacent roots
    merged.validate()
    assert sorted(merged.iter_tuples()) == [
        (1, 1, 1),
        (1, 1, 2),
        (2, 2, 1),
        (2, 2, 2),
    ]


def test_swap_node_with_equivalence_class():
    tree = build_ftree(
        [("p", [(("a", "b"), ["c"])])],
        keys={"p": {"r"}, "a": {"r"}, "c": {"r"}},
    )
    relation = Relation(
        ("p", "a", "b", "c"), [(1, 5, 5, 9), (1, 6, 6, 8), (2, 5, 5, 7)]
    )
    fact = factorise(relation, tree)
    swapped = ops.swap(fact, "a")  # the class node rises above p
    swapped.validate()
    assert swapped.to_relation() == relation
    root = swapped.ftree.roots[0]
    assert set(root.attributes) == {"a", "b"}


def test_ordered_enumeration_by_class_attribute():
    tree = build_ftree(
        [(("a", "b"), ["c"])],
        keys={"a": {"r"}, "c": {"r"}},
    )
    relation = Relation(("a", "b", "c"), [(2, 2, 9), (1, 1, 8), (3, 3, 7)])
    fact = factorise(relation, tree)
    rows = list(iter_tuples(fact, [("b", "desc")]))  # order by class member
    assert [row[1] for row in rows] == [3, 2, 1]


def test_select_constant_on_root(pizzeria):
    fact = pizzeria.get_factorised("R")
    selected = ops.select_constant(fact, Comparison("pizza", "!=", "Hawaii"))
    assert selected.roots[0].values == ["Capricciosa", "Margherita"]


def test_absorb_class_accumulates_attributes():
    relation = Relation(("a", "b", "c"), [(1, 1, 1), (2, 2, 3)])
    fact = factorise_path(relation, "R")
    once = ops.absorb(fact, "a", "b")  # class (a, b)
    twice = ops.absorb(once, "a", "c")  # class (a, b, c)
    twice.validate()
    assert sorted(twice.iter_tuples()) == [(1, 1, 1)]
    assert set(twice.ftree.roots[0].attributes) == {"a", "b", "c"}


def test_swap_aggregate_node_to_root(pizzeria):
    fact = pizzeria.get_factorised("R")
    aggregated = ops.apply_aggregation(
        fact, "pizza", ["date", "item"], [("count", None)], name="n"
    )
    # The aggregate node can be promoted like any other (Q7's mechanism).
    promoted = ops.swap(aggregated, "n")
    promoted.validate()
    assert promoted.ftree.roots[0].name == "n"
    counts = promoted.roots[0].values
    assert counts == sorted(counts)  # sorted by component tuple


def test_deeply_nested_swap_chain():
    relation = Relation(
        ("a", "b", "c", "d"),
        [(i, i % 2, i % 3, i % 5) for i in range(12)],
    )
    fact = factorise_path(relation, "R")
    current = fact
    for name in ("d", "c", "b", "d", "a", "c"):
        node = current.ftree.node(name)
        if current.ftree.parent(node) is None:
            continue
        current = ops.swap(current, name)
        current.validate()
    assert current.to_relation() == relation


def test_nest_under_then_swap_back():
    """Nesting then restructuring keeps the relation stable."""
    r = Relation(("a", "v"), [(1, 5), (2, 6)], "R")
    s = Relation(("b",), [(8,), (9,)], "S")
    fact = ops.product(factorise_path(r, "R"), factorise_path(s, "S"))
    nested = ops.nest_root_under(fact, "b", "a")
    swapped = ops.swap(nested, "b")
    swapped.validate()
    assert swapped.schema() == ["b", "a", "v"]  # b promoted to the root
    expected = {(b, a, v) for (a, v) in r.rows for (b,) in s.rows}
    assert set(swapped.iter_tuples()) == expected
