"""Level-batched kernels against the per-union kernels they replaced.

``map_cunion_at`` and the per-union ``transform`` bodies of the previous
kernels are kept here, verbatim in what they compute, as the reference.
Seeded random f-trees and hand-built unions — empty unions, one-entry
unions, multi-attribute nodes, aggregate leaves with and without a
count component, fragments shared by identity between parent entries —
go through every kernel (χ in both its shapes, µ, α, σ, π, both nests,
γ) and the outputs are compared *structurally*: f-tree, value arrays and
the shape of every child column, not just the flattened rows.
"""

import random
from bisect import bisect_left

import pytest

from repro.core import aggregates as agg
from repro.core import kernels
from repro.core import operators as ops
from repro.core.frep import (
    Factorisation,
    CUnion,
    level_column,
    map_cunion_level,
    splice_level,
)
from repro.core.ftree import AggregateAttribute, FNode, FTree
from repro.expr import col
from repro.query import Comparison


# ---------------------------------------------------------------------------
# Reference: the per-union driver and the transforms that ran under it
# ---------------------------------------------------------------------------
def map_cunion_at(fact, root_index, steps, transform, new_ftree):
    def rebuild(node, union, remaining):
        if not remaining:
            return transform(node, union)
        step, rest = remaining[0], remaining[1:]
        cols = union.children
        child_node = node.children[step]
        new_col, keep = [], []
        for i, sub in enumerate(cols[step]):
            new_child = rebuild(child_node, sub, rest)
            if not new_child.values:
                continue  # empty fragment: the entry represents ∅, prune it
            keep.append(i)
            new_col.append(new_child)
        if len(keep) == len(union.values):
            values = union.values
            children = cols[:step] + (new_col,) + cols[step + 1 :]
        else:
            values = [union.values[i] for i in keep]
            children = tuple(
                new_col if c == step else [cols[c][i] for i in keep]
                for c in range(len(cols))
            )
        return CUnion(values, children)

    new_roots = list(fact.roots)
    new_roots[root_index] = rebuild(
        fact.ftree.roots[root_index], fact.roots[root_index], list(steps)
    )
    return Factorisation(new_ftree, new_roots)


def ref_swap(fact, child_name):
    ftree = fact.ftree
    node_b = ftree.node(child_name)
    node_a = ftree.parent(node_b)
    j = next(i for i, child in enumerate(node_a.children) if child is node_b)
    new_b, tb_idx, tab_idx = ops._swapped_nodes(node_a, node_b)
    new_ftree = ftree.replace_node(node_a.name, lambda _: [new_b])
    rest_idx = [i for i in range(len(node_a.children)) if i != j]

    if not tb_idx and not tab_idx and not rest_idx:

        def invert(_, union_a):
            b_col = union_a.children[j]
            collected = {}
            for ai, a_value in enumerate(union_a.values):
                for b_value in b_col[ai].values:
                    collected.setdefault(b_value, []).append(a_value)
            values = sorted(collected)
            return CUnion(values, ([CUnion(collected[v], ()) for v in values],))

        root_index, steps = ftree.path_to(node_a.name)
        return map_cunion_at(fact, root_index, steps, invert, new_ftree)

    def transform(_, union_a):
        a_values = union_a.values
        a_cols = union_a.children
        b_col = a_cols[j]
        collected = {}
        for ai, a_value in enumerate(a_values):
            b_union = b_col[ai]
            b_cols = b_union.children
            for bi, b_value in enumerate(b_union.values):
                record = collected.get(b_value)
                if record is None:
                    collected[b_value] = (
                        [b_cols[i][bi] for i in tb_idx],
                        [(a_value, ai, b_cols, bi)],
                    )
                    continue
                record[1].append((a_value, ai, b_cols, bi))
        values = sorted(collected)
        tb_out = tuple(
            [collected[value][0][t] for value in values]
            for t in range(len(tb_idx))
        )
        under_col = []
        for value in values:
            pairs = collected[value][1]
            under_cols = [
                [a_cols[i][p[1]] for p in pairs] for i in rest_idx
            ] + [[p[2][i][p[3]] for p in pairs] for i in tab_idx]
            under_col.append(CUnion([p[0] for p in pairs], tuple(under_cols)))
        return CUnion(values, tb_out + (under_col,))

    root_index, steps = ftree.path_to(node_a.name)
    return map_cunion_at(fact, root_index, steps, transform, new_ftree)


def ref_merge(fact, name_a, name_b):
    ftree = fact.ftree
    node_a, node_b = ftree.node(name_a), ftree.node(name_b)
    parent = ftree.parent(node_a)
    new_ftree = ops.merge_tree(ftree, name_a, name_b)
    ia = next(i for i, n in enumerate(parent.children) if n is node_a)
    ib = next(i for i, n in enumerate(parent.children) if n is node_b)
    slot = ops._merged_slot(ia, ib)

    def transform(_, union):
        values, cols = union.values, union.children
        merged_col, keep = [], []
        for i in range(len(values)):
            merged = kernels.intersect_cunions(cols[ia][i], cols[ib][i])
            if not merged.values:
                continue
            keep.append(i)
            merged_col.append(merged)
        rest = [c for c in range(len(cols)) if c != ia and c != ib]
        out_cols = [[cols[c][i] for i in keep] for c in rest]
        out_cols.insert(slot, merged_col)
        return CUnion([values[i] for i in keep], tuple(out_cols))

    root_index, steps = ftree.path_to(parent.name)
    return map_cunion_at(fact, root_index, steps, transform, new_ftree)


def ref_absorb(fact, ancestor_name, descendant_name):
    ftree = fact.ftree
    node_anc = ftree.node(ancestor_name)
    node_desc = ftree.node(descendant_name)
    new_ftree = ops.absorb_tree(ftree, ancestor_name, descendant_name)
    spine = [node_desc]
    while spine[-1] is not node_anc:
        spine.append(ftree.parent(spine[-1]))
    spine.reverse()
    rel_steps = [
        next(i for i, child in enumerate(upper.children) if child is lower)
        for upper, lower in zip(spine, spine[1:])
    ]
    direct = len(rel_steps) == 1
    out_arity = (
        len(node_anc.children) - 1 + len(node_desc.children)
        if direct
        else len(node_anc.children)
    )

    def filter_union(node, union, steps, value):
        step = steps[0]
        cols = union.children
        column = cols[step]
        if len(steps) == 1:
            k_desc = len(node.children[step].children)
            matched_cols = [[] for _ in range(k_desc)]
            keep = []
            for i, sub in enumerate(column):
                index = bisect_left(sub.values, value)
                if index == len(sub.values) or sub.values[index] != value:
                    continue
                keep.append(i)
                for c in range(k_desc):
                    matched_cols[c].append(sub.children[c][index])
            out_cols = []
            for c in range(len(cols)):
                if c == step:
                    out_cols.extend(matched_cols)
                else:
                    out_cols.append([cols[c][i] for i in keep])
            return CUnion([union.values[i] for i in keep], tuple(out_cols))
        new_col, keep = [], []
        for i, sub in enumerate(column):
            filtered = filter_union(node.children[step], sub, steps[1:], value)
            if not filtered.values:
                continue
            keep.append(i)
            new_col.append(filtered)
        return CUnion(
            [union.values[i] for i in keep],
            tuple(
                new_col if c == step else [cols[c][i] for i in keep]
                for c in range(len(cols))
            ),
        )

    def transform(node, union):
        values, cols = union.values, union.children
        step = rel_steps[0]
        keep, entry_children = [], []
        for i, value in enumerate(values):
            sub = cols[step][i]
            if direct:
                index = bisect_left(sub.values, value)
                if index == len(sub.values) or sub.values[index] != value:
                    continue
                matched = tuple(column[index] for column in sub.children)
                children = (
                    tuple(cols[c][i] for c in range(step))
                    + matched
                    + tuple(cols[c][i] for c in range(step + 1, len(cols)))
                )
            else:
                filtered = filter_union(
                    node.children[step], sub, rel_steps[1:], value
                )
                if not filtered.values:
                    continue
                children = tuple(
                    cols[c][i] if c != step else filtered
                    for c in range(len(cols))
                )
            keep.append(i)
            entry_children.append(children)
        out_cols = tuple(
            [entry[c] for entry in entry_children] for c in range(out_arity)
        )
        return CUnion([values[i] for i in keep], out_cols)

    root_index, steps = ftree.path_to(node_anc.name)
    return map_cunion_at(fact, root_index, steps, transform, new_ftree)


def ref_select(fact, condition):
    node = fact.ftree.node(condition.attribute)
    component = (
        ops._scalar_component(node.aggregate) if node.is_aggregate else None
    )

    def transform(_, union):
        values = union.values
        keep = [
            i
            for i, value in enumerate(values)
            if condition.test(value if component is None else value[component])
        ]
        if len(keep) == len(values):
            return union
        return CUnion(
            [values[i] for i in keep],
            tuple([column[i] for i in keep] for column in union.children),
        )

    root_index, steps = fact.ftree.path_to(node.name)
    return map_cunion_at(fact, root_index, steps, transform, fact.ftree)


def ref_remove_leaf(fact, name):
    ftree = fact.ftree
    node = ftree.node(name)
    parent = ftree.parent(node)
    index = next(i for i, n in enumerate(parent.children) if n is node)

    def transform(_, union):
        cols = union.children
        return CUnion(union.values, cols[:index] + cols[index + 1 :])

    root_index, steps = ftree.path_to(parent.name)
    return map_cunion_at(
        fact, root_index, steps, transform, ops.remove_leaf_tree(ftree, name)
    )


def ref_nest_under(fact, name, target_sibling):
    ftree = fact.ftree
    node, target = ftree.node(name), ftree.node(target_sibling)
    parent = ftree.parent(node)
    s_idx = next(i for i, c in enumerate(parent.children) if c is node)
    t_idx = next(i for i, c in enumerate(parent.children) if c is target)
    new_target = target.with_children(tuple(target.children) + (node,))
    new_parent = parent.with_children(
        [
            (new_target if i == t_idx else c)
            for i, c in enumerate(parent.children)
            if i != s_idx
        ]
    )
    new_ftree = ftree.replace_node(parent.name, lambda _: [new_parent])
    new_t_slot = t_idx - 1 if s_idx < t_idx else t_idx

    def transform(_, union):
        cols = union.children
        moved_col = cols[s_idx]
        rest = [cols[c] for c in range(len(cols)) if c != s_idx]
        rest[new_t_slot] = [
            CUnion(t.values, t.children + ([moved_col[i]] * len(t.values),))
            for i, t in enumerate(rest[new_t_slot])
        ]
        return CUnion(union.values, tuple(rest))

    root_index, steps = ftree.path_to(parent.name)
    return map_cunion_at(fact, root_index, steps, transform, new_ftree)


def ref_nest_root_under(fact, root_name, target):
    ftree = fact.ftree
    node = ftree.node(root_name)
    target_node = ftree.node(target)
    r_idx = next(i for i, r in enumerate(ftree.roots) if r is node)
    moved_union = fact.roots[r_idx]
    new_target = target_node.with_children(tuple(target_node.children) + (node,))
    pruned_tree = FTree([r for i, r in enumerate(ftree.roots) if i != r_idx])
    new_ftree = pruned_tree.replace_node(target, lambda _: [new_target])

    def transform(_, union):
        return CUnion(
            union.values, union.children + ([moved_union] * len(union.values),)
        )

    pruned = Factorisation(
        pruned_tree, [u for i, u in enumerate(fact.roots) if i != r_idx]
    )
    root_index, steps = pruned_tree.path_to(target)
    return map_cunion_at(pruned, root_index, steps, transform, new_ftree)


def ref_aggregate(fact, parent_name, child_names, functions, name):
    """γ one entry at a time: the structural emptiness check and the
    scalar evaluators, which the batch passes are twins of."""
    ftree = fact.ftree
    parent, indices = ops._resolve_subtrees(ftree, parent_name, child_names)
    new_ftree, _ = ops.aggregate_tree(
        ftree, parent_name, child_names, functions, name
    )
    slot = ops._collapsed_slot(indices[0], indices)
    if parent is None:
        items = [(ftree.roots[i], fact.roots[i]) for i in indices]
        roots = [u for i, u in enumerate(fact.roots) if i not in indices]
        found = (
            []
            if agg.forest_is_empty(items)
            else [agg.evaluate_components(functions, items)]
        )
        roots.insert(slot, CUnion(found, ()))
        return Factorisation(new_ftree, roots)
    child_nodes = [parent.children[i] for i in indices]

    def transform(_, union):
        cols = union.children
        keep = [
            i
            for i in range(len(union.values))
            if not any(
                agg.union_is_empty(node, cols[c][i])
                for node, c in zip(child_nodes, indices)
            )
        ]
        agg_col = [
            CUnion(
                [
                    agg.evaluate_components(
                        functions,
                        [(n, cols[c][i]) for n, c in zip(child_nodes, indices)],
                    )
                ],
                (),
            )
            for i in keep
        ]
        out_cols = [
            [cols[c][i] for i in keep]
            for c in range(len(cols))
            if c not in indices
        ]
        out_cols.insert(slot, agg_col)
        return CUnion([union.values[i] for i in keep], tuple(out_cols))

    root_index, steps = ftree.path_to(parent.name)
    return map_cunion_at(fact, root_index, steps, transform, new_ftree)


# ---------------------------------------------------------------------------
# Structural comparison and seeded inputs
# ---------------------------------------------------------------------------
def shape(union):
    return (
        list(union.values),
        [[shape(sub) for sub in column] for column in union.children],
    )


def dependencies(tree):
    """Per node, its names and keys; the keys operators mint
    (``__dep_<counter>``) are numbered in order of appearance."""
    minted = {}
    return [
        (
            node.all_names,
            sorted(
                f"minted{minted.setdefault(key, len(minted))}"
                if key.startswith("__dep_")
                else key
                for key in sorted(node.keys)
            ),
        )
        for node in tree.nodes()
    ]


def assert_same(got, want):
    assert got.ftree.pretty() == want.ftree.pretty()
    assert dependencies(got.ftree) == dependencies(want.ftree)
    assert [shape(union) for union in got.roots] == [
        shape(union) for union in want.roots
    ]
    got.validate()


def leaf(name, functions=None, keys=("k",)):
    if functions is None:
        return FNode((name,), (), keys)
    return FNode(AggregateAttribute(tuple(functions), frozenset({name}), name), (), keys)


# Tree shapes: a → (b → (c, d), e); keys make d and e independent of b
# and a respectively where a template says so.
def random_tree(rng, kind=None):
    if kind is None:
        kind = rng.randrange(4)
    if kind == 0:  # branching, every node dependent on every other
        b = FNode(("b",), (leaf("c"), leaf("d")), ("k",))
        return FTree([FNode(("a",), (b, leaf("e")), ("k",))])
    if kind == 1:  # d hangs below b but depends on a only; e on a only
        b = FNode(("b",), (leaf("c", keys=("k", "kb")), leaf("d", keys=("ka",))), ("kb",))
        return FTree([FNode(("a", "a2"), (b, leaf("e", keys=("ka",))), ("ka", "k"))])
    if kind == 2:  # a path, with a multi-attribute class in the middle
        c = FNode(("c", "c2"), (leaf("d"),), ("k",))
        return FTree([FNode(("a",), (FNode(("b",), (c,), ("k",)),), ("k",))])
    # aggregate leaves: one with a count component, one without
    b = FNode(
        ("b",),
        (
            leaf("s", [("sum", "s"), ("count", None)], keys=("kb",)),
            leaf("t", [("sum", "t")], keys=("ka",)),
        ),
        ("kb", "ka"),
    )
    return FTree([FNode(("a",), (b, leaf("e", keys=("ka",))), ("ka",))])


def random_union(rng, node, top=True):
    """A sorted union over ``node``; sub-unions may be empty, and a
    column may share one fragment between all (or some) of its entries."""
    size = rng.choice([1, 2, 3, 4] if top else [0, 1, 1, 2, 3])
    picks = sorted(rng.sample(range(5), size))
    if node.is_aggregate:
        width = len(node.aggregate.functions)
        values = [(v,) + (rng.randrange(3),) * (width - 1) for v in picks]
    else:
        values = picks
    cols = []
    for child in node.children:
        mode = rng.randrange(4)
        if mode == 0 and size:  # one fragment shared by every entry
            column = [random_union(rng, child, False)] * size
        else:
            column = [random_union(rng, child, False) for _ in values]
            if mode == 1 and size > 1:  # the first two entries share
                column[1] = column[0]
        cols.append(column)
    return CUnion(values, tuple(cols))


def random_fact(seed, kind=None):
    rng = random.Random(seed)
    tree = random_tree(rng, kind)
    return rng, Factorisation(
        tree, [random_union(rng, root) for root in tree.roots]
    )


SEEDS = range(60)


# ---------------------------------------------------------------------------
# Every kernel against its reference
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_swap_general_and_pure(seed):
    rng, fact = random_fact(seed)
    for node in list(fact.ftree.nodes()):
        if fact.ftree.parent(node) is None:
            continue
        assert_same(ops.swap(fact, node.name), ref_swap(fact, node.name))
    # The pure two-level shape: a leaf that is its parent's only child,
    # below a level of several unions.
    tree = FTree([FNode(("a",), (FNode(("b",), (leaf("c"),), ("k",)),), ("k",))])
    pure = Factorisation(tree, [random_union(rng, tree.roots[0])])
    assert_same(ops.swap(pure, "c"), ref_swap(pure, "c"))


@pytest.mark.parametrize("seed", SEEDS)
def test_merge_and_absorb(seed):
    rng, fact = random_fact(seed)
    tree = fact.ftree
    for parent in tree.nodes():
        plain = [c for c in parent.children if not c.is_aggregate]
        for left, right in zip(plain, plain[1:]):
            assert_same(
                ops.merge_siblings(fact, left.name, right.name),
                ref_merge(fact, left.name, right.name),
            )
    for upper in tree.nodes():
        for lower in tree.nodes():
            if lower.is_aggregate or not tree.is_ancestor(upper, lower):
                continue
            assert_same(
                ops.absorb(fact, upper.name, lower.name),
                ref_absorb(fact, upper.name, lower.name),
            )


@pytest.mark.parametrize("seed", SEEDS)
def test_select_prunes_ancestors_and_keeps_columns_aligned(seed):
    rng, fact = random_fact(seed)
    for node in fact.ftree.nodes():
        if node.is_aggregate and len(node.aggregate.functions) != 1:
            continue
        # Order comparisons are bisected where that takes fewer probes
        # than the level has values, and tested per distinct value else.
        for op, constant in (
            (">", 1), ("<", 3), (">=", 2), ("<=", 2), ("=", 2), ("!=", 0), (">", 9), ("<", 0),
        ):
            condition = Comparison(node.name, op, constant)
            got = ops.select_constant(fact, condition)
            assert_same(got, ref_select(fact, condition))
    # (">", 9) keeps nothing: the whole relation is pruned to ∅.
    assert ops.select_constant(
        fact, Comparison(fact.ftree.roots[0].name, ">", 9)
    ).is_empty()


@pytest.mark.parametrize("seed", SEEDS)
def test_projection_and_nests(seed):
    rng, fact = random_fact(seed)
    tree = fact.ftree
    for node in tree.nodes():
        parent = tree.parent(node)
        if parent is None:
            continue
        if not node.children:
            assert_same(
                ops.remove_leaf(fact, node.name),
                ref_remove_leaf(fact, node.name),
            )
        for sibling in parent.children:
            if sibling is not node and not sibling.is_aggregate:
                assert_same(
                    ops.nest_under(fact, node.name, sibling.name),
                    ref_nest_under(fact, node.name, sibling.name),
                )
    extra = FNode(("z",), (leaf("y", keys=("kz",)),), ("kz",))
    product = Factorisation(
        FTree(tree.roots + (extra,)), fact.roots + (random_union(rng, extra),)
    )
    for target in tree.nodes():
        if target.is_aggregate:
            continue
        got = ops.nest_root_under(product, "z", target.name)
        assert_same(got, ref_nest_root_under(product, "z", target.name))
        # The moved tree is one fragment, shared by every entry.
        moved = product.roots[-1]
        root_index, steps = got.ftree.path_to("z")
        level = [got.roots[root_index]]
        for step in steps:
            level = level_column(level, step)
        assert all(union is moved for union in level)


GAMMAS = [
    (("sum", "{}"),),
    (("count", None),),
    (("sum", "{}"), ("count", None)),
    (("min", "{}"), ("max", "{}"), ("count", None)),
]


def check_gamma(fact, *args):
    """Same output, or the same refusal (an aggregate leaf without a
    count component cannot be counted, Prop. 2; extrema over ∅)."""
    try:
        want = ref_aggregate(fact, *args)
    except (agg.CompositionError, agg.EmptyAggregateError) as error:
        with pytest.raises(type(error)):
            ops.apply_aggregation(fact, *args)
    else:
        assert_same(ops.apply_aggregation(fact, *args), want)


@pytest.mark.parametrize("seed", SEEDS)
def test_aggregation(seed):
    rng, fact = random_fact(seed)
    for parent in fact.ftree.nodes():
        for child in parent.children:
            carried = sorted(
                child.subtree_atomic_attributes()
                | {n.name for n in child.walk() if n.is_aggregate}
            )
            for template in GAMMAS:
                target = rng.choice(carried)
                functions = tuple(
                    (fn, attr and attr.format(target)) for fn, attr in template
                )
                check_gamma(fact, parent.name, [child.name], functions, "out")
        plain = [c for c in parent.children if not c.is_aggregate]
        if len(plain) > 1:  # several subtrees folded into one node
            functions = (("count", None), ("sum", plain[0].attributes[0]))
            names = [c.name for c in plain]
            check_gamma(fact, parent.name, names, functions, "out")
    # The roots are one context of their own.
    root = fact.ftree.roots[0]
    for functions in ((("count", None),), (("sum", "a"), ("max", "a"))):
        check_gamma(fact, None, [root.name], functions, "out")
    empty = Factorisation(fact.ftree, [CUnion([], ([],) * len(root.children))])
    check_gamma(empty, None, [root.name], (("min", "a"),), "out")


@pytest.mark.parametrize("seed", range(20))
def test_expression_aggregates_take_the_scalar_fallback(seed):
    rng, fact = random_fact(seed, kind=0)  # a → (b → (c, d), e)
    functions = (("sum", col("c") * 2 + 1), ("count", None))
    args = ("a", ["b"], functions, "out")
    assert_same(ops.apply_aggregation(fact, *args), ref_aggregate(fact, *args))


def test_extrema_over_an_empty_fragment_still_raise():
    # b has an entry whose c-union is empty but whose sibling keeps b's
    # union alive: min(c) must not skip it silently.
    tree = FTree([FNode(("a",), (FNode(("b",), (leaf("c"),), ("k",)),), ("k",))])
    b_union = CUnion([1, 2], ([CUnion([5], ()), CUnion([], ())],))
    fact = Factorisation(tree, [CUnion([0], ([b_union],))])
    for function in ("min", "max"):
        with pytest.raises(agg.EmptyAggregateError):
            ops.apply_aggregation(fact, "a", ["b"], ((function, "c"),), "out")
        with pytest.raises(agg.EmptyAggregateError):
            ref_aggregate(fact, "a", ["b"], ((function, "c"),), "out")
    # Whole contexts without tuples are dropped, never evaluated.
    dead = Factorisation(
        tree, [CUnion([0, 1], ([CUnion([], ([],)), b_union],))]
    )
    got = ops.apply_aggregation(dead, "a", ["b"], (("count", None),), "out")
    assert shape(got.roots[0]) == ([1], [[([(1,)], [])]])


# ---------------------------------------------------------------------------
# The driver: shared fragments, pruning, sharing by reference
# ---------------------------------------------------------------------------
def test_shared_fragment_is_evaluated_once_and_stays_shared():
    tree = FTree([FNode(("a",), (FNode(("b",), (leaf("c"),), ("kb",)),), ("ka",))])
    shared = CUnion([1, 2, 3], ([CUnion([v], ()) for v in (7, 8, 9)],))
    other = CUnion([2], ([CUnion([7], ())],))
    fact = Factorisation(
        tree, [CUnion([10, 11, 12, 13], ([shared, other, shared, shared],))]
    )
    tested = []

    class Counting(Comparison):
        def test(self, value):
            tested.append(value)
            return value >= 2

    got = ops.select_constant(fact, Counting("b", ">=", 2))
    assert sorted(tested) == [1, 2, 3]  # once per distinct value of the level
    column = got.roots[0].children[0]
    assert column[0] is column[2] is column[3]
    assert column[1] is other  # nothing filtered: the input fragment itself
    assert got.covered == 2  # two unions at b's level, not four
    assert_same(got, ref_select(fact, Comparison("b", ">=", 2)))

    seen = []

    def kernel(node, unions):
        seen.append(len(unions))
        return [CUnion(list(u.values), u.children) for u in unions]

    root_index, steps = tree.path_to("c")
    out = map_cunion_level(fact, root_index, steps, kernel, tree)
    assert seen == [4]  # shared's three c-unions once, other's one
    column = out.roots[0].children[0]
    assert column[0] is column[2] is column[3] and column[0] is not shared


def test_order_comparisons_probe_sorted_unions_by_bisection():
    tree = FTree([FNode(("a",), (leaf("b"),), ("k",))])
    root = CUnion(list(range(64)), ([CUnion([i], ()) for i in range(64)],))
    fact = Factorisation(tree, [root])
    for op, constant in ((">=", 40), (">", 40), ("<", 7), ("<=", 7), (">", 99)):
        probed = []

        class Counting(Comparison):
            def test(self, value):
                probed.append(value)
                return super().test(value)

        got = ops.select_constant(fact, Counting("a", op, constant))
        assert len(probed) <= 7  # log2(64) + 1, not 64
        assert_same(got, ref_select(fact, Comparison("a", op, constant)))


def test_untouched_fragments_and_columns_are_shared_by_reference():
    tree = FTree([FNode(("a",), (leaf("b"), leaf("e")), ("k",))])
    b_col = [CUnion([1, 2], ()), CUnion([3], ())]
    e_col = [CUnion([5], ()), CUnion([6], ())]
    fact = Factorisation(tree, [CUnion([0, 1], (b_col, e_col))])
    kept = ops.select_constant(fact, Comparison("b", ">", 1))
    root = kept.roots[0]
    assert root.values is fact.roots[0].values  # no entry pruned: no copy
    assert root.children[1] is e_col  # the sibling column itself
    assert root.children[0][1] is b_col[1]  # a union that lost nothing
    assert shape(root.children[0][0]) == ([2], [])
    # Once an entry is pruned, every column is cut alike.
    cut = ops.select_constant(fact, Comparison("b", ">", 2)).roots[0]
    assert shape(cut) == ([1], [[([3], [])], [([6], [])]])
    assert cut.children[1][0] is e_col[1]


def test_splice_level_prunes_every_column():
    subs = [CUnion([i], ()) for i in range(4)]
    level = [
        CUnion([1, 2], (subs[:2], ["x", "y"])),
        CUnion([3], (subs[2:3], ["z"])),
        CUnion([], ([], [])),
    ]
    new = [CUnion([0], ()), CUnion([], ()), CUnion([], ())]
    live = [True, False, False]
    out = splice_level(level, (0,), 0, (new,), live)
    assert [u.values for u in out] == [[1], [], []]
    assert [u.children[1] for u in out] == [["x"], [], []]
    assert out[0].children[0] == [new[0]]
