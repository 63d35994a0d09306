"""Unit tests for the f-plan operators (swap, merge, absorb, γ, ...)."""

import pytest

from repro.core import operators as ops
from repro.core.build import factorise, factorise_path
from repro.core.frep import iter_entries
from repro.core.ftree import build_ftree
from repro.query import Comparison
from repro.relational.operators import multiway_join
from repro.relational.relation import Relation


@pytest.fixture()
def pizza_fact(pizzeria_rels, t1):
    joined = multiway_join(list(pizzeria_rels))
    return factorise(joined, t1)


@pytest.fixture()
def pizza_relation(pizzeria_rels):
    return multiway_join(list(pizzeria_rels))


# ---------------------------------------------------------------------------
# swap χ
# ---------------------------------------------------------------------------
def test_swap_preserves_relation(pizza_fact, pizza_relation):
    swapped = ops.swap(pizza_fact, "date")
    swapped.validate()
    assert swapped.to_relation() == pizza_relation
    assert swapped.ftree.parent(swapped.ftree.node("pizza")).name == "date"


def test_swap_partitions_dependent_children(pizza_fact):
    # Swapping date above pizza: the item branch depends on pizza, so it
    # must stay below pizza (T_AB); date has no independent children.
    swapped = ops.swap(pizza_fact, "date")
    pizza_node = swapped.ftree.node("pizza")
    assert {c.name for c in pizza_node.children} == {"customer", "item"}


def test_swap_keeps_sorted_invariant(pizza_fact):
    swapped = ops.swap(pizza_fact, "date")
    dates = swapped.roots[0].values
    assert dates == sorted(dates)
    swapped.validate()


def test_swap_root_rejected(pizza_fact):
    with pytest.raises(ops.OperatorError):
        ops.swap(pizza_fact, "pizza")


def test_swap_twice_restores_structure(pizza_fact, pizza_relation):
    once = ops.swap(pizza_fact, "date")
    twice = ops.swap(once, "pizza")
    twice.validate()
    assert twice.to_relation() == pizza_relation
    assert twice.ftree.node("pizza") is twice.ftree.roots[0]


def test_swap_example2_right_branch_untouched(pizza_fact):
    """Example 2: pushing customer up need not change the item branch."""
    up1 = ops.swap(pizza_fact, "customer")  # above date
    up2 = ops.swap(up1, "customer")  # above pizza
    up2.validate()
    # The item→price fragments are shared with the input (same objects),
    # i.e. the right branch of T1 was not rebuilt.
    original_items = {
        pizza: children[1] for pizza, children in iter_entries(pizza_fact.roots[0])
    }
    pizza_node = up2.ftree.node("pizza")
    item_slot = [c.name for c in pizza_node.children].index("item")
    shared = 0
    for _, customer_children in iter_entries(up2.roots[0]):
        for pizza, pizza_children in iter_entries(customer_children[-1]):
            if pizza_children[item_slot] is original_items[pizza]:
                shared += 1
    assert shared >= 3  # every pizza occurrence reuses its fragment


def test_swap_deep_node(pizza_fact, pizza_relation):
    swapped = ops.swap(pizza_fact, "customer")  # deep: child of date
    swapped.validate()
    assert swapped.to_relation() == pizza_relation


def test_strict_swap_checks(pizza_fact):
    ops.STRICT_SWAP_CHECKS = True
    try:
        swapped = ops.swap(pizza_fact, "date")
        swapped.validate()
    finally:
        ops.STRICT_SWAP_CHECKS = False


# ---------------------------------------------------------------------------
# merge
# ---------------------------------------------------------------------------
def test_merge_roots():
    r = Relation(("a",), [(1,), (2,), (3,)], "R")
    s = Relation(("b",), [(2,), (3,), (4,)], "S")
    fact = ops.product(factorise_path(r, "R"), factorise_path(s, "S"))
    merged = ops.merge_siblings(fact, "a", "b")
    merged.validate()
    assert sorted(merged.iter_tuples()) == [(2, 2), (3, 3)]
    node = merged.ftree.node("a")
    assert set(node.attributes) == {"a", "b"}


def test_merge_computes_join():
    r = Relation(("a", "x"), [(1, 10), (2, 20), (2, 21)], "R")
    s = Relation(("b", "y"), [(2, 5), (3, 6)], "S")
    fact = ops.product(
        factorise_path(r, "R"), factorise_path(s, "S")
    )
    merged = ops.merge_siblings(fact, "a", "b")
    # Merged class (a, b) emits the shared value for both attributes.
    assert merged.schema() == ["a", "b", "x", "y"]
    assert sorted(merged.iter_tuples()) == [(2, 2, 20, 5), (2, 2, 21, 5)]


def test_merge_non_siblings_rejected(pizza_fact):
    with pytest.raises(ops.OperatorError):
        ops.merge_siblings(pizza_fact, "pizza", "customer")


def test_merge_under_common_parent():
    # tree: a → (b, c); select b = c.
    relation = Relation(
        ("a", "b", "c"),
        [(1, 5, 5), (1, 5, 6), (1, 6, 6), (2, 7, 7)],
    )
    tree = build_ftree(
        [("a", ["b", "c"])],
        keys={"a": {"r", "s"}, "b": {"r"}, "c": {"s"}},
    )
    # This relation does not factor exactly over the tree, but the merge
    # result must equal the selection over the tree's relation.
    fact = factorise(relation, tree)
    merged = ops.merge_siblings(fact, "b", "c")
    merged.validate()
    expected = sorted(
        (a, b, b)
        for a, b in {(1, 5), (1, 6), (2, 7)}
    )
    assert sorted(merged.iter_tuples()) == expected


def test_merge_prunes_empty_contexts():
    relation = Relation(("a", "b", "c"), [(1, 5, 6), (2, 7, 7)])
    tree = build_ftree(
        [("a", ["b", "c"])],
        keys={"a": {"r", "s"}, "b": {"r"}, "c": {"s"}},
    )
    fact = factorise(relation, tree)
    merged = ops.merge_siblings(fact, "b", "c")
    # a=1 has no b=c match and must disappear entirely.
    assert sorted(merged.iter_tuples()) == [(2, 7, 7)]


# ---------------------------------------------------------------------------
# absorb
# ---------------------------------------------------------------------------
def test_absorb_descendant():
    relation = Relation(("a", "b"), [(1, 1), (1, 2), (2, 2), (3, 1)])
    fact = factorise_path(relation, "R")  # a → b
    absorbed = ops.absorb(fact, "a", "b")
    absorbed.validate()
    assert sorted(absorbed.iter_tuples()) == [(1, 1), (2, 2)]
    node = absorbed.ftree.node("a")
    assert set(node.attributes) == {"a", "b"}
    assert not node.children


def test_absorb_deep_descendant():
    relation = Relation(
        ("a", "m", "b"), [(1, 9, 1), (1, 9, 2), (2, 8, 2), (3, 7, 9)]
    )
    fact = factorise_path(relation, "R")  # a → m → b
    absorbed = ops.absorb(fact, "a", "b")
    absorbed.validate()
    # b joins a's class, so the schema becomes (a, b, m).
    assert absorbed.schema() == ["a", "b", "m"]
    assert sorted(absorbed.iter_tuples()) == [(1, 1, 9), (2, 2, 8)]
    # b's children (none) hoisted; m keeps its place under the merged node.
    assert absorbed.ftree.node("m").name == "m"


def test_absorb_requires_ancestry(pizza_fact):
    with pytest.raises(ops.OperatorError):
        ops.absorb(pizza_fact, "customer", "item")


def test_absorb_hoists_children():
    relation = Relation(
        ("a", "b", "c"), [(1, 1, 5), (2, 2, 6), (2, 3, 7)]
    )
    fact = factorise_path(relation, "R")  # a → b → c
    absorbed = ops.absorb(fact, "a", "b")
    absorbed.validate()
    assert sorted(absorbed.iter_tuples()) == [(1, 1, 5), (2, 2, 6)]
    merged = absorbed.ftree.node("a")
    assert [c.name for c in merged.children] == ["c"]


# ---------------------------------------------------------------------------
# constant selection
# ---------------------------------------------------------------------------
def test_select_constant(pizza_fact):
    selected = ops.select_constant(pizza_fact, Comparison("price", "<=", 2))
    selected.validate()
    expected = {
        row for row in pizza_fact.iter_tuples() if row[4] <= 2
    }
    assert set(selected.iter_tuples()) == expected


def test_select_constant_prunes_upward(pizza_fact):
    selected = ops.select_constant(
        pizza_fact, Comparison("customer", "=", "Lucia")
    )
    # Only Hawaii remains at the root.
    assert selected.roots[0].values == ["Hawaii"]


def test_select_constant_to_empty(pizza_fact):
    selected = ops.select_constant(
        pizza_fact, Comparison("customer", "=", "Nobody")
    )
    assert selected.is_empty()
    assert list(selected.iter_tuples()) == []


# ---------------------------------------------------------------------------
# projection operators
# ---------------------------------------------------------------------------
def test_remove_leaf(pizza_fact, pizza_relation):
    removed = ops.remove_leaf(pizza_fact, "price")
    removed.validate()
    assert removed.to_relation() == pizza_relation.project(
        ["customer", "date", "pizza", "item"]
    )


def test_remove_leaf_requires_leaf(pizza_fact):
    with pytest.raises(ops.OperatorError):
        ops.remove_leaf(pizza_fact, "date")


def test_remove_leaf_mints_dependency(pizza_fact):
    # Removing price leaves item dependent on the Items relation only;
    # no two remaining dependents, so no fresh key is needed. Removing
    # customer after date (below) exercises the fresh-key path instead.
    removed = ops.remove_leaf(pizza_fact, "customer")
    removed.validate()
    assert "customer" not in removed.ftree


def test_remove_last_node_rejected():
    fact = factorise_path(Relation(("x",), [(1,)]), "R")
    with pytest.raises(ops.OperatorError):
        ops.remove_leaf(fact, "x")


def test_remove_class_attribute():
    tree = build_ftree([(("a", "b"), ["c"])], keys={"a": {"r"}, "c": {"r"}})
    fact = factorise(
        Relation(("a", "b", "c"), [(1, 1, 5), (2, 2, 6)]), tree
    )
    dropped = ops.remove_class_attribute(fact, "b")
    assert dropped.schema() == ["a", "c"]
    assert sorted(dropped.iter_tuples()) == [(1, 5), (2, 6)]


def test_remove_class_attribute_requires_class(pizza_fact):
    with pytest.raises(ops.OperatorError):
        ops.remove_class_attribute(pizza_fact, "price")


# ---------------------------------------------------------------------------
# rename and product
# ---------------------------------------------------------------------------
def test_rename(pizza_fact):
    renamed = ops.rename(pizza_fact, "price", "cost")
    assert "cost" in renamed.ftree and "price" not in renamed.ftree
    # Constant time: fragments are shared, not copied.
    assert renamed.roots is pizza_fact.roots


def test_rename_conflict(pizza_fact):
    with pytest.raises(ops.OperatorError):
        ops.rename(pizza_fact, "price", "item")


def test_product_disjoint_forests():
    left = factorise_path(Relation(("a",), [(1,)]), "L")
    right = factorise_path(Relation(("b",), [(2,)]), "R")
    combined = ops.product(left, right)
    assert list(combined.iter_tuples()) == [(1, 2)]


# ---------------------------------------------------------------------------
# nesting (linearisation support)
# ---------------------------------------------------------------------------
def test_nest_under_preserves_relation(pizza_fact, pizza_relation):
    nested = ops.nest_under(pizza_fact, "item", "date")
    nested.validate()
    assert nested.to_relation() == pizza_relation
    date = nested.ftree.node("date")
    assert {c.name for c in date.children} == {"customer", "item"}


def test_nest_under_requires_siblings(pizza_fact):
    with pytest.raises(ops.OperatorError):
        ops.nest_under(pizza_fact, "customer", "item")


def test_nest_root_under():
    left = factorise_path(Relation(("a",), [(1,), (2,)]), "L")
    right = factorise_path(Relation(("b",), [(5,), (6,)]), "R")
    fact = ops.product(left, right)
    nested = ops.nest_root_under(fact, "b", "a")
    nested.validate()
    assert sorted(nested.iter_tuples()) == [(1, 5), (1, 6), (2, 5), (2, 6)]
    assert len(nested.ftree.roots) == 1


def test_nest_root_under_rejects_non_root(pizza_fact):
    with pytest.raises(ops.OperatorError):
        ops.nest_root_under(pizza_fact, "date", "item")


# ---------------------------------------------------------------------------
# the γ aggregation operator
# ---------------------------------------------------------------------------
def test_gamma_example4_t2(pizza_fact):
    """Example 4: γ_sum(price) on the item subtree of T1 yields T2."""
    result = ops.apply_aggregation(
        pizza_fact, "pizza", ["item"], [("sum", "price")], name="sp"
    )
    result.validate()
    names = result.ftree.attribute_names()
    assert names == ["pizza", "date", "customer", "sp"]
    by_pizza = {
        pizza: children[1].values[0]
        for pizza, children in iter_entries(result.roots[0])
    }
    assert by_pizza == {
        "Capricciosa": (8,),
        "Hawaii": (9,),
        "Margherita": (6,),
    }


def test_gamma_introduces_dependency(pizza_fact):
    """Example 5: sp depends on pizza after aggregating item, price."""
    result = ops.apply_aggregation(
        pizza_fact, "pizza", ["item"], [("sum", "price")], name="sp"
    )
    tree = result.ftree
    assert tree.node("sp").depends_on(tree.node("pizza"))
    assert not tree.node("sp").depends_on(tree.node("customer"))
    assert tree.satisfies_path_constraint()


def test_gamma_root_level(pizza_fact):
    result = ops.apply_aggregation(
        pizza_fact, None, ["pizza"], [("sum", "price")], name="total"
    )
    assert list(result.iter_tuples()) == [((40,),)]


def test_gamma_multiple_subtrees(pizza_fact):
    # Aggregate both branches under pizza at once: count of the join
    # per pizza = dates×customers × items.
    result = ops.apply_aggregation(
        pizza_fact, "pizza", ["date", "item"], [("count", None)], name="n"
    )
    by_pizza = {
        pizza: children[0].values[0]
        for pizza, children in iter_entries(result.roots[0])
    }
    assert by_pizza == {"Capricciosa": (6,), "Hawaii": (6,), "Margherita": (1,)}


def test_gamma_composite_functions(pizza_fact):
    result = ops.apply_aggregation(
        pizza_fact,
        "pizza",
        ["item"],
        [("sum", "price"), ("count", None), ("min", "price")],
        name="stats",
    )
    by_pizza = {
        pizza: children[1].values[0]
        for pizza, children in iter_entries(result.roots[0])
    }
    assert by_pizza["Capricciosa"] == (8, 3, 1)
    assert by_pizza["Margherita"] == (6, 1, 6)


def test_gamma_example6_count_of_count(pizzeria_rels):
    """Example 6: count over a count partial multiplies correctly."""
    _, pizzas, _ = pizzeria_rels
    fact = factorise_path(pizzas, "Pizzas")  # pizza → item
    counted = ops.apply_aggregation(
        fact, "pizza", ["item"], [("count", None)], name="ci"
    )
    total = ops.apply_aggregation(
        counted, None, ["pizza"], [("count", None)], name="call"
    )
    assert list(total.iter_tuples()) == [((7,),)]


def test_gamma_requires_subtree(pizza_fact):
    with pytest.raises(ops.OperatorError):
        ops.apply_aggregation(pizza_fact, "pizza", [], [("count", None)])
    with pytest.raises(ops.OperatorError):
        ops.apply_aggregation(
            pizza_fact, "pizza", ["customer"], [("count", None)]
        )


def test_gamma_proposition2_composition(pizza_fact):
    """γ_F(U) ∘ γ_F(V) = γ_F(U) for V ⊆ U (Proposition 2)."""
    # Direct: one γ over the whole item subtree.
    direct = ops.apply_aggregation(
        pizza_fact, "pizza", ["item"], [("sum", "price")], name="s"
    )
    # Composed: first sum prices per item, then sum over the subtree.
    partial = ops.apply_aggregation(
        pizza_fact, "item", ["price"], [("sum", "price")], name="pp"
    )
    composed = ops.apply_aggregation(
        partial, "pizza", ["item"], [("sum", "price")], name="s"
    )
    assert direct.to_relation() == composed.to_relation()


def test_gamma_sum_over_count_partial(pizza_fact):
    """γ_sumA(U) ∘ γ_count(V) = γ_sumA(U) for A ∉ V (Proposition 2)."""
    direct = ops.apply_aggregation(
        pizza_fact, None, ["pizza"], [("sum", "price")], name="s"
    )
    partial = ops.apply_aggregation(
        pizza_fact, "pizza", ["date"], [("count", None)], name="cd"
    )
    composed = ops.apply_aggregation(
        partial, None, ["pizza"], [("sum", "price")], name="s"
    )
    assert list(direct.iter_tuples()) == list(composed.iter_tuples())
