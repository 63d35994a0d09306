"""Unit tests for the Section 3.2 recursive aggregation algorithms."""

import pytest

from repro.core import aggregates as agg
from repro.core.build import factorise, factorise_path
from repro.core.frep import CUnion, singleton_cunion
from repro.core.ftree import AggregateAttribute, FNode, build_ftree
from repro.relational.operators import multiway_join
from repro.relational.relation import Relation


@pytest.fixture()
def pizza_fact(pizzeria_rels, t1):
    joined = multiway_join(list(pizzeria_rels))
    return factorise(joined, t1)


def items(fact):
    return list(zip(fact.ftree.roots, fact.roots))


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------
def test_count_linear_in_representation(pizza_fact):
    assert agg.count_forest(items(pizza_fact)) == 13


def test_count_union_products():
    # {1,2} × {5,6,7}: count = 2 * 3 even though only 5 singletons exist.
    relation = Relation(("a", "b"), [(a, b) for a in (1, 2) for b in (5, 6, 7)])
    tree = build_ftree(["a", "b"], keys={"a": {"r"}, "b": {"s"}})
    fact = factorise(relation, tree)
    assert agg.count_forest(items(fact)) == 6


def test_count_of_aggregate_singleton():
    # Example 6: ⟨count(item):3⟩ counts as 3 tuples, not 1.
    attr = AggregateAttribute((("count", None),), frozenset({"item"}), "c")
    node = FNode(attr, (), {"r"})
    assert agg.count_union(node, singleton_cunion((3,))) == 3


def test_count_over_sum_only_aggregate_raises():
    attr = AggregateAttribute((("sum", "p"),), frozenset({"p"}), "s")
    node = FNode(attr, (), {"r"})
    with pytest.raises(agg.CompositionError):
        agg.count_union(node, singleton_cunion((9,)))


# ---------------------------------------------------------------------------
# sum
# ---------------------------------------------------------------------------
def test_sum_simple(pizza_fact):
    assert agg.sum_forest("price", items(pizza_fact)) == 40


def test_sum_multiplies_by_sibling_counts():
    # sum of b over {1,2} × {10,20}: each b counted twice.
    relation = Relation(("a", "b"), [(a, b) for a in (1, 2) for b in (10, 20)])
    tree = build_ftree(["a", "b"], keys={"a": {"r"}, "b": {"s"}})
    fact = factorise(relation, tree)
    assert agg.sum_forest("b", items(fact)) == 60


def test_sum_of_partial_sum_singleton():
    attr = AggregateAttribute((("sum", "p"),), frozenset({"p", "i"}), "s")
    node = FNode(attr, (), {"r"})
    assert agg.sum_union("p", node, CUnion([(9,), (8,)])) == 17


def test_sum_example8_combination():
    """Example 8: v = 1·(1·2·8 + 1·1·6) = 22 for Mario."""
    count_attr = AggregateAttribute((("count", None),), frozenset({"date"}), "cd")
    sum_attr = AggregateAttribute(
        (("sum", "price"),), frozenset({"item", "price"}), "sp"
    )
    pizza = FNode(("pizza",), (FNode(count_attr), FNode(sum_attr)), {"o"})
    union = CUnion(
        ["Capricciosa", "Margherita"],
        (
            [singleton_cunion((2,)), singleton_cunion((1,))],
            [singleton_cunion((8,)), singleton_cunion((6,))],
        ),
    )
    assert agg.sum_union("price", pizza, union) == 22


def test_sum_over_count_only_aggregate_raises():
    attr = AggregateAttribute((("count", None),), frozenset({"p"}), "c")
    node = FNode(attr, (), {"r"})
    with pytest.raises(agg.CompositionError):
        agg.sum_union("p", node, singleton_cunion((3,)))


def test_sum_missing_attribute_raises(pizza_fact):
    with pytest.raises(agg.CompositionError):
        agg.sum_forest("nonexistent", items(pizza_fact))


# ---------------------------------------------------------------------------
# min / max
# ---------------------------------------------------------------------------
def test_extrema(pizza_fact):
    assert agg.extremum_forest("min", "price", items(pizza_fact)) == 1
    assert agg.extremum_forest("max", "price", items(pizza_fact)) == 6


def test_extrema_ignore_multiplicities():
    relation = Relation(("a", "b"), [(a, b) for a in (1, 2, 3) for b in (5, 9)])
    tree = build_ftree(["a", "b"], keys={"a": {"r"}, "b": {"s"}})
    fact = factorise(relation, tree)
    assert agg.extremum_forest("min", "b", items(fact)) == 5


def test_extremum_of_partial(pizza_fact):
    attr = AggregateAttribute((("min", "p"),), frozenset({"p"}), "m")
    node = FNode(attr, (), {"r"})
    assert agg.extremum_union("min", "p", node, CUnion([(4,), (2,)])) == 2


def test_extremum_empty_raises():
    node = FNode(("a",), (), {"r"})
    with pytest.raises(agg.EmptyAggregateError):
        agg.extremum_union("min", "a", node, CUnion([]))


# ---------------------------------------------------------------------------
# Composite evaluation (Section 3.2.4)
# ---------------------------------------------------------------------------
def test_evaluate_components(pizza_fact):
    values = agg.evaluate_components(
        [("sum", "price"), ("count", None), ("min", "price"), ("max", "price")],
        items(pizza_fact),
    )
    assert values == (40, 13, 1, 6)


def test_evaluate_components_unknown_function(pizza_fact):
    with pytest.raises(agg.CompositionError):
        agg.evaluate_components([("median", "price")], items(pizza_fact))


def test_cached_evaluator_matches_plain(pizza_fact):
    cached = agg.CachedEvaluator()
    values = cached.components(
        [("sum", "price"), ("count", None)], items(pizza_fact)
    )
    assert values == (40, 13)
    # A second call hits the cache and returns identical values.
    assert cached.components(
        [("sum", "price"), ("count", None)], items(pizza_fact)
    ) == (40, 13)


# ---------------------------------------------------------------------------
# Proposition 2: partial function selection and composability
# ---------------------------------------------------------------------------
def test_partial_functions_sum_inside():
    needed = agg.partial_functions_for([("sum", "price")], {"price", "item"})
    assert needed == (("sum", "price"),)


def test_partial_functions_sum_outside_becomes_count():
    needed = agg.partial_functions_for([("sum", "price")], {"date"})
    assert needed == (("count", None),)


def test_partial_functions_avg_keeps_shared_count():
    needed = agg.partial_functions_for(
        [("sum", "price"), ("count", None)], {"price"}
    )
    assert needed == (("sum", "price"), ("count", None))


def test_partial_functions_extremum_outside_is_empty():
    assert agg.partial_functions_for([("min", "price")], {"date"}) == ()


def test_composable_rules():
    count_partial = AggregateAttribute(
        (("count", None),), frozenset({"d"}), "c"
    )
    sum_partial = AggregateAttribute(
        (("sum", "p"),), frozenset({"p"}), "s"
    )
    assert agg.composable(("count", None), count_partial)
    assert not agg.composable(("count", None), sum_partial)
    assert agg.composable(("sum", "p"), sum_partial)
    assert agg.composable(("sum", "x"), count_partial)  # x outside: weight
    assert not agg.composable(("sum", "d"), count_partial)  # d was counted away
    assert agg.composable(("min", "p"), count_partial)  # extrema ignore counts
