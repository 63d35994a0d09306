"""Unit tests for the factorisation builder."""

import pytest

from repro.core.build import FactoriseError, factorise, factorise_path
from repro.core.ftree import build_ftree, path_ftree
from repro.relational.operators import multiway_join
from repro.relational.relation import Relation


def test_factorise_pizzeria_matches_figure1(pizzeria_rels, t1):
    joined = multiway_join(list(pizzeria_rels))
    fact = factorise(joined, t1)
    fact.validate()
    # Figure 1's factorisation has 26 singletons for the 13-tuple join.
    assert fact.size() == 26
    assert fact.tuple_count() == 13
    assert fact.to_relation() == joined


def test_factorise_groups_by_root(pizzeria_rels, t1):
    joined = multiway_join(list(pizzeria_rels))
    fact = factorise(joined, t1)
    assert fact.roots[0].values == ["Capricciosa", "Hawaii", "Margherita"]  # sorted


def test_factorise_requires_matching_schema(t1):
    wrong = Relation(("x",), [(1,)])
    with pytest.raises(FactoriseError):
        factorise(wrong, t1)


def test_factorise_rejects_aggregate_nodes():
    from repro.core.ftree import AggregateAttribute, FNode, FTree

    agg_tree = FTree(
        [FNode(AggregateAttribute((("count", None),), frozenset(), "n"))]
    )
    with pytest.raises(FactoriseError):
        factorise(Relation(("n",), [(1,)]), agg_tree)


def test_factorise_check_detects_invalid_tree():
    # R is NOT a product of its projections: {(1,1),(2,2)} ≠ {1,2}×{1,2}.
    relation = Relation(("a", "b"), [(1, 1), (2, 2)])
    tree = build_ftree(["a", "b"], keys={"a": {"r"}, "b": {"s"}})
    with pytest.raises(FactoriseError):
        factorise(relation, tree, check=True)
    # Without the check the construction silently over-approximates.
    assert factorise(relation, tree).tuple_count() == 4


def test_factorise_path_identity_roundtrip():
    relation = Relation(("a", "b", "c"), [(1, 2, 3), (1, 2, 4), (2, 1, 1)])
    fact = factorise_path(relation, "R")
    fact.validate()
    assert fact.to_relation() == relation
    assert fact.ftree.satisfies_path_constraint()


def test_factorise_path_shares_prefixes():
    rows = [(1, i) for i in range(10)] + [(2, 0)]
    fact = factorise_path(Relation(("a", "b"), rows), "R")
    # 2 a-singletons + 11 b-singletons, versus 22 flat singletons.
    assert fact.size() == 13


def test_factorise_path_custom_order():
    relation = Relation(("a", "b"), [(1, 9), (2, 9)])
    fact = factorise_path(relation, "R", order=["b", "a"])
    assert fact.schema() == ["b", "a"]
    assert fact.size() == 3  # one b value shared over two a values


def test_equivalence_class_requires_equal_values():
    tree = build_ftree([(("a", "b"), [])], keys={"a": {"r"}})
    with pytest.raises(FactoriseError):
        factorise(Relation(("a", "b"), [(1, 2)]), tree)


def test_equivalence_class_build_ok():
    tree = build_ftree([(("a", "b"), ["c"])], keys={"a": {"r"}, "c": {"r"}})
    fact = factorise(Relation(("a", "b", "c"), [(1, 1, 5), (2, 2, 6)]), tree)
    assert sorted(fact.iter_tuples()) == [(1, 1, 5), (2, 2, 6)]


def test_forest_build_product_decomposition():
    # R = π_a(R) × π_b(R) holds here, so a two-root forest is valid.
    relation = Relation(("a", "b"), [(a, b) for a in (1, 2) for b in (5, 6)])
    tree = build_ftree(["a", "b"], keys={"a": {"r1"}, "b": {"r2"}})
    fact = factorise(relation, tree, check=True)
    assert fact.size() == 4


def test_join_dependency_factorisation():
    # R satisfies the join dependency (AB, BC): factorise over b → (a, c).
    r = Relation(("a", "b"), [(1, 1), (2, 1), (3, 2)], "R")
    s = Relation(("b", "c"), [(1, 8), (1, 9), (2, 7)], "S")
    joined = multiway_join([r, s])
    tree = build_ftree(
        [("b", ["a", "c"])],
        keys={"b": {"R", "S"}, "a": {"R"}, "c": {"S"}},
    )
    fact = factorise(joined, tree, check=True)
    assert fact.to_relation() == joined
    # b=1 context: 2 a's + 2 c's stored once each (4+1), b=2: 1+1+1.
    assert fact.size() == 2 + 2 + 2 + 1 + 1


# ---------------------------------------------------------------------------
# Factorised join: several inputs, never joined flat
# ---------------------------------------------------------------------------
def _signature(union):
    """Values and child signatures, recursively: equal iff singleton-identical."""
    return (
        tuple(union.values),
        tuple(tuple(_signature(child) for child in col) for col in union.children),
    )


def _assert_identical(left, right):
    assert left.ftree is right.ftree
    assert [_signature(r) for r in left.roots] == [_signature(r) for r in right.roots]


@pytest.mark.parametrize("seed", [7, 23])
@pytest.mark.parametrize("scale", [0.25, 1.0])
def test_factorised_join_builds_r1_as_the_flat_join_does(scale, seed):
    from repro.data.generator import GeneratorConfig, generate
    from repro.data.workloads import section6_ftree

    data = generate(GeneratorConfig(scale=scale, seed=seed))
    inputs = [data.orders, data.packages, data.items]
    tree = section6_ftree()
    fact = factorise(inputs, tree)
    _assert_identical(fact, factorise(multiway_join(inputs), tree))
    fact.validate()


def test_factorised_join_builds_pizzeria_t1(pizzeria_rels, t1):
    inputs = list(pizzeria_rels)
    fact = factorise(inputs, t1, check=True)
    _assert_identical(fact, factorise(multiway_join(inputs), t1))
    assert fact.size() == 26  # Figure 1


def test_factorised_join_over_a_path_ftree():
    relation = Relation(("a", "b", "c"), [(1, 2, 3), (1, 2, 4), (2, 1, 1), (2, 3, 1)])
    tree = path_ftree(relation.schema, "R", ["b", "a", "c"])
    _assert_identical(factorise([relation], tree), factorise(relation, tree))
    # The join of two inputs over the path of its attributes.
    r = Relation(("a", "b"), [(1, 1), (2, 1), (3, 2), (4, 5)], "R")
    s = Relation(("b", "c"), [(1, 8), (1, 9), (2, 7), (6, 6)], "S")
    path = path_ftree(("a", "b", "c"), "RS", ["b", "c", "a"])
    fact = factorise([r, s], path, check=True)
    _assert_identical(fact, factorise(multiway_join([r, s]), path))


def test_factorised_join_drops_values_without_partners():
    r = Relation(("a", "b"), [(1, 1), (2, 2)], "R")
    s = Relation(("b", "c"), [(1, 8)], "S")
    tree = build_ftree([("a", [("b", ["c"])])], keys={"a": {"R"}, "b": {"R", "S"}, "c": {"S"}})
    fact = factorise([r, s], tree)
    assert fact.roots[0].values == [1]  # a = 2 has no c below it
    empty = factorise([r, Relation(("b", "c"), [], "S")], tree)
    assert empty.roots[0].values == [] and empty.tuple_count() == 0


def test_factorised_join_rejects_an_input_attribute_outside_the_ftree(pizzeria_rels, t1):
    orders, pizzas, items = pizzeria_rels
    extra = Relation(("item", "supplier"), [("ham", "acme")])
    with pytest.raises(FactoriseError, match="do not match"):
        factorise([orders, pizzas, items, extra], t1)


def test_factorised_join_rejects_an_ftree_attribute_no_input_supplies(pizzeria_rels, t1):
    orders, pizzas, _items = pizzeria_rels
    with pytest.raises(FactoriseError, match="do not match"):
        factorise([orders, pizzas], t1)
