"""F-plan operators: mappings between factorisations (Sections 2.1, 3, 4.2).

Every operator has two layers:

- a pure *tree-level* transform (``*_tree``) producing the output f-tree,
  used by the optimiser to explore plans without touching data; and
- the transform on a :class:`repro.core.frep.Factorisation`: it resolves
  the operator's position in the f-tree and hands every union at that
  position — one f-tree *level* — to the matching batch kernel of
  :mod:`repro.core.kernels` in a single call
  (:func:`repro.core.frep.map_cunion_level`), which rebuilds only the
  affected spine of the representation.

Operators preserve the two global invariants: values within each union
are sorted ascending, and no entry has an empty child union (∅ absorbs
through products, so emptiness is pruned upward on the spot).

Implemented operators:

====================  =====================================================
``swap``              χ_{A,B}: exchange a node with its parent (Section 4.2)
``merge_siblings``    selection A=B for sibling nodes (sorted intersection)
``absorb``            selection A=B when one node is the other's descendant
``select_constant``   selection Aθc in one traversal
``remove_leaf``       projection step: drop a leaf node
``rename``            rename an attribute or aggregate (constant time)
``product``           cross product: concatenate forests
``apply_aggregation`` the new γ_F(U) operator of Section 3
====================  =====================================================
"""

from __future__ import annotations

from typing import Sequence

from repro.core import kernels
from repro.core.frep import CUnion, Factorisation, empty_cunion, map_cunion_level
from repro.core.frep import splice_level
from repro.core.ftree import (
    AggregateAttribute,
    FNode,
    FTree,
    fresh_aggregate_name,
)
from repro.query import Comparison

#: When True, swap verifies that fragments independent of the swapped
#: node really are identical across contexts (costly; used in tests).
STRICT_SWAP_CHECKS = False

_dep_counter = [0]


def _fresh_dependency_key() -> str:
    _dep_counter[0] += 1
    return f"__dep_{_dep_counter[0]}"


class OperatorError(ValueError):
    """Raised when an operator's applicability conditions fail."""


# ---------------------------------------------------------------------------
# swap χ_{A,B}
# ---------------------------------------------------------------------------
def swap_tree(ftree: FTree, child_name: str) -> FTree:
    """Tree-level effect of χ: promote the named node above its parent.

    Children of the promoted node B that depend on the old parent A stay
    below A (the T_AB of Section 4.2); independent children move up with
    B (T_B).  Dependency keys are untouched — a swap never changes the
    represented relation.
    """
    node_b = ftree.node(child_name)
    node_a = ftree.parent(node_b)
    if node_a is None:
        raise OperatorError(f"node {child_name!r} is a root; nothing to swap")
    new_b, _, _ = _swapped_nodes(node_a, node_b)
    return ftree.replace_node(node_a.name, lambda _: [new_b])


def _swapped_nodes(
    node_a: FNode, node_b: FNode
) -> tuple[FNode, list[int], list[int]]:
    """New top node plus the T_B / T_AB child index partition of B."""
    j = next(i for i, child in enumerate(node_a.children) if child is node_b)
    tb_idx: list[int] = []
    tab_idx: list[int] = []
    for i, child in enumerate(node_b.children):
        if child.subtree_keys() & node_a.keys:
            tab_idx.append(i)
        else:
            tb_idx.append(i)
    a_rest = [child for i, child in enumerate(node_a.children) if i != j]
    new_a = node_a.with_children(
        a_rest + [node_b.children[i] for i in tab_idx]
    )
    new_b = node_b.with_children([node_b.children[i] for i in tb_idx] + [new_a])
    return new_b, tb_idx, tab_idx


@kernels.timed("swap")
def swap(fact: Factorisation, child_name: str) -> Factorisation:
    """χ_{A,B} on a factorisation: regroup by B before A (Section 4.2).

    Linear in the size of the affected fragments: each (a, b) pair is
    visited once; the union over B is assembled sorted.
    """
    ftree = fact.ftree
    node_b = ftree.node(child_name)
    node_a = ftree.parent(node_b)
    if node_a is None:
        raise OperatorError(f"node {child_name!r} is a root; nothing to swap")
    j = next(i for i, child in enumerate(node_a.children) if child is node_b)
    new_b, tb_idx, tab_idx = _swapped_nodes(node_a, node_b)
    new_ftree = ftree.replace_node(node_a.name, lambda _: [new_b])
    rest_idx = [i for i in range(len(node_a.children)) if i != j]
    pivot = kernels.pivot(
        j,
        rest_idx,
        tb_idx,
        tab_idx,
        _check_independent_fragments if STRICT_SWAP_CHECKS else None,
    )
    root_index, steps = ftree.path_to(node_a.name)
    return map_cunion_level(fact, root_index, steps, pivot, new_ftree)


def _check_independent_fragments(
    first: Sequence[CUnion], second: Sequence[CUnion]
) -> None:
    """Debug check: T_B fragments must match across co-occurring A values."""
    if _fragments_signature(first) != _fragments_signature(second):
        raise OperatorError(
            "swap invariant violated: fragments declared independent of the "
            "old parent differ across its values (path constraint broken?)"
        )


def _fragments_signature(fragments: Sequence[CUnion]) -> tuple:
    def sig(union: CUnion) -> tuple:
        return (
            tuple(union.values),
            tuple(tuple(sig(sub) for sub in col) for col in union.children),
        )

    return tuple(sig(union) for union in fragments)


# ---------------------------------------------------------------------------
# merge (selection A=B on sibling nodes)
# ---------------------------------------------------------------------------
def merge_tree(ftree: FTree, name_a: str, name_b: str) -> FTree:
    """Tree-level merge: one node with the united class, keys, children."""
    node_a, node_b = ftree.node(name_a), ftree.node(name_b)
    _require_siblings(ftree, node_a, node_b)
    merged = _merged_node(node_a, node_b)
    without_b = ftree.replace_node(node_b.name, lambda _: [])
    return without_b.replace_node(node_a.name, lambda _: [merged])


def _require_siblings(ftree: FTree, node_a: FNode, node_b: FNode) -> None:
    if node_a is node_b:
        raise OperatorError("cannot merge a node with itself")
    if ftree.parent(node_a) is not ftree.parent(node_b):
        raise OperatorError(
            f"merge requires sibling nodes; {node_a.label()!r} and "
            f"{node_b.label()!r} have different parents"
        )


def _merged_node(node_a: FNode, node_b: FNode) -> FNode:
    if node_a.is_aggregate or node_b.is_aggregate:
        raise OperatorError("cannot merge aggregate nodes")
    return FNode(
        node_a.attributes + node_b.attributes,
        node_a.children + node_b.children,
        node_a.keys | node_b.keys,
    )


@kernels.timed("merge")
def merge_siblings(fact: Factorisation, name_a: str, name_b: str) -> Factorisation:
    """σ_{A=B} for siblings: intersect the two sorted unions (linear)."""
    ftree = fact.ftree
    node_a, node_b = ftree.node(name_a), ftree.node(name_b)
    _require_siblings(ftree, node_a, node_b)
    parent = ftree.parent(node_a)
    new_ftree = merge_tree(ftree, name_a, name_b)

    if parent is None:
        ia = next(i for i, n in enumerate(ftree.roots) if n is node_a)
        ib = next(i for i, n in enumerate(ftree.roots) if n is node_b)
        merged = kernels.intersect_cunions(fact.roots[ia], fact.roots[ib])
        # Positional bookkeeping: replace_node keeps A's slot and drops B's.
        roots = _reposition_roots(fact.roots, ia, ib, merged)
        return Factorisation(new_ftree, roots)

    ia = next(i for i, n in enumerate(parent.children) if n is node_a)
    ib = next(i for i, n in enumerate(parent.children) if n is node_b)
    intersect = kernels.intersect_columns(ia, ib, _merged_slot(ia, ib))
    root_index, steps = ftree.path_to(parent.name)
    return map_cunion_level(fact, root_index, steps, intersect, new_ftree)


def _merged_slot(ia: int, ib: int) -> int:
    """Slot of the merged child after removing both originals.

    ``replace_node`` keeps the merged node in A's position, minus one if
    B preceded A in the child list.
    """
    return ia - 1 if ib < ia else ia


def _reposition_roots(
    roots: Sequence[CUnion], ia: int, ib: int, merged: CUnion
) -> list[CUnion]:
    remaining = [u for i, u in enumerate(roots) if i != ia and i != ib]
    remaining.insert(_merged_slot(ia, ib), merged)
    return remaining


# ---------------------------------------------------------------------------
# absorb (selection A=B when one node is the other's descendant)
# ---------------------------------------------------------------------------
def absorb_tree(ftree: FTree, ancestor_name: str, descendant_name: str) -> FTree:
    """Tree-level absorb: the descendant's class joins the ancestor's."""
    node_anc = ftree.node(ancestor_name)
    node_desc = ftree.node(descendant_name)
    if not ftree.is_ancestor(node_anc, node_desc):
        raise OperatorError(
            f"{ancestor_name!r} is not an ancestor of {descendant_name!r}"
        )
    if node_anc.is_aggregate or node_desc.is_aggregate:
        raise OperatorError("cannot absorb aggregate nodes")
    hoisted = ftree.replace_node(
        node_desc.name, lambda node: list(node.children)
    )
    merged = FNode(
        node_anc.attributes + node_desc.attributes,
        hoisted.node(node_anc.name).children,
        node_anc.keys | node_desc.keys,
    )
    return hoisted.replace_node(node_anc.name, lambda _: [merged])


@kernels.timed("absorb")
def absorb(
    fact: Factorisation, ancestor_name: str, descendant_name: str
) -> Factorisation:
    """σ_{A=B} with B below A: filter B's unions to A's context value.

    For every value ``a`` of the ancestor, the descendant union in each
    context below it is filtered to the single entry with value ``a``
    (binary search in the sorted union) and its children are spliced in
    place; contexts with no match are pruned.
    """
    ftree = fact.ftree
    node_anc = ftree.node(ancestor_name)
    node_desc = ftree.node(descendant_name)
    new_ftree = absorb_tree(ftree, ancestor_name, descendant_name)

    # Child-index path from the ancestor down to the descendant.
    spine = [node_desc]
    while spine[-1] is not node_anc:
        spine.append(ftree.parent(spine[-1]))
    spine.reverse()  # ancestor ... descendant
    rel_steps = [
        next(i for i, child in enumerate(upper.children) if child is lower)
        for upper, lower in zip(spine, spine[1:])
    ]
    matching = kernels.match_descendant(rel_steps, len(node_desc.children))
    root_index, steps = ftree.path_to(node_anc.name)
    return map_cunion_level(fact, root_index, steps, matching, new_ftree)


# ---------------------------------------------------------------------------
# constant selection
# ---------------------------------------------------------------------------
@kernels.timed("select")
def select_constant(
    fact: Factorisation, condition: Comparison, *more: Comparison
) -> Factorisation:
    """σ_{AθC}: one filter pass cuts every union of A's level.

    ``more`` are further constant comparisons on A's node, tested in the
    same pass (a range ``lo <= A < hi`` is one traversal, not two).
    The unions are sorted (Section 4.1), so the survivors of order
    comparisons are a run of each and can be found by bisection.  An
    expression is tested at the deepest node it reads:
    once per distinct value if that is the only one, else per entry
    with its ancestors' values bound from its path, which must hold
    every node read (the planner's χ puts them on one path).  One that
    reads no attribute is tested once: false empties every root.
    """
    ftree = fact.ftree
    if any(each.is_expression for each in more):
        raise OperatorError("only constant comparisons share one σ")
    if condition.is_expression:
        return _select_expression(fact, condition)
    node = ftree.node(condition.attribute)
    tests = []
    for each in (condition, *more):
        if ftree.node(each.attribute) is not node:
            raise OperatorError(f"σ[{each}] is not on the node of {node.name!r}")
        test = each.test
        # Which end of a sorted union an order comparison keeps.
        keeps_suffix = {">": True, ">=": True, "<": False, "<=": False}.get(each.op)
        if node.is_aggregate:
            component = _scalar_component(node.aggregate)
            test = lambda value, test=test: test(value[component])  # noqa: E731
            keeps_suffix = None  # component tuples sort as tuples
        tests.append((test, keeps_suffix))
    root_index, steps = ftree.path_to(node.name)
    return map_cunion_level(
        fact, root_index, steps, kernels.keep_matching(tests), ftree
    )


def select_tree(ftree: FTree, condition: Comparison) -> FTree:
    """Tree-level σ: the shape is unchanged, but the nodes an expression
    reads become dependent (a fresh shared key) if there are several."""
    if not condition.is_expression:
        return ftree
    names = {ftree.node(a).name for a in condition.attributes}
    if len(names) < 2:
        return ftree
    fresh = _fresh_dependency_key()
    return ftree.map_nodes(
        lambda n: n.with_keys(n.keys | {fresh}) if n.name in names else n
    )


def _select_expression(fact: Factorisation, condition: Comparison) -> Factorisation:
    ftree, expression = fact.ftree, condition.attribute
    names = expression.attributes()
    if not names:
        if condition.test(expression.evaluate({})):
            return fact
        return Factorisation(ftree, [empty_cunion(len(u.children)) for u in fact.roots])
    if not ftree.on_one_path(names):
        raise OperatorError(f"σ[{condition}] reads independent branches")
    depths = [ftree.depth(ftree.node(name)) for name in names]
    deepest = ftree.node(names[depths.index(max(depths))])
    test = lambda values: condition.test(expression.evaluate(dict(zip(names, values))))
    several = len(set(depths)) > 1
    if several:
        kernel = kernels.keep_bound(test, depths)
    else:
        kernel = kernels.keep_matching([(lambda value: test([value] * len(names)), None)])
    root_index, steps = ftree.path_to(deepest.name)
    new_ftree = select_tree(ftree, condition)
    return map_cunion_level(fact, root_index, steps, kernel, new_ftree, several)


def _scalar_component(aggregate: AggregateAttribute) -> int:
    if len(aggregate.functions) != 1:
        raise OperatorError(
            f"selection on composite aggregate {aggregate} is ambiguous"
        )
    return 0


# ---------------------------------------------------------------------------
# projection: remove a leaf
# ---------------------------------------------------------------------------
def remove_leaf_tree(ftree: FTree, name: str) -> FTree:
    """Drop a leaf node; dependents of it become mutually dependent."""
    node = ftree.node(name)
    if node.children:
        raise OperatorError(f"node {name!r} is not a leaf")
    if sum(len(list(root.walk())) for root in ftree.roots) == 1:
        raise OperatorError("cannot remove the only node of an f-tree")
    removed_keys = node.keys
    pruned = ftree.replace_node(name, lambda _: [])
    dependents = {
        n.name for n in pruned.nodes() if n.keys & removed_keys
    }
    if len(dependents) <= 1:
        return pruned
    fresh = _fresh_dependency_key()
    return pruned.map_nodes(
        lambda n: n.with_keys(n.keys | {fresh}) if n.name in dependents else n
    )


@kernels.timed("remove_leaf")
def remove_leaf(fact: Factorisation, name: str) -> Factorisation:
    """Projection step: drop a leaf attribute from the representation.

    No duplicate elimination is ever needed: distinct sibling structure
    is untouched, so the remaining representation stays a set.
    """
    ftree = fact.ftree
    node = ftree.node(name)
    new_ftree = remove_leaf_tree(ftree, name)
    parent = ftree.parent(node)

    if parent is None:
        index = next(i for i, n in enumerate(ftree.roots) if n is node)
        roots = [u for i, u in enumerate(fact.roots) if i != index]
        if not fact.roots[index]:  # ∅ stays ∅: the other roots empty too
            roots = [empty_cunion(len(u.children)) for u in roots]
        return Factorisation(new_ftree, roots)

    index = next(i for i, n in enumerate(parent.children) if n is node)

    def drop(_: FNode, unions: list[CUnion]) -> Sequence[CUnion]:
        return splice_level(unions, drop=(index,))

    root_index, steps = ftree.path_to(parent.name)
    return map_cunion_level(fact, root_index, steps, drop, new_ftree)


# ---------------------------------------------------------------------------
# projection: drop one attribute of an equivalence class
# ---------------------------------------------------------------------------
def remove_class_attribute(fact: Factorisation, attribute: str) -> Factorisation:
    """Drop an attribute from a multi-attribute class (fragments untouched).

    After a selection A=B merged two nodes, projecting away one of the
    equal attributes only changes the label — every singleton already
    carries the shared value for the remaining attribute.
    """
    node = fact.ftree.node(attribute)
    if node.is_aggregate:
        raise OperatorError("aggregate attributes are removed via projection")
    if len(node.attributes) < 2:
        raise OperatorError(
            f"{attribute!r} is the only attribute of its node; "
            "use remove_leaf instead"
        )

    def relabel(current: FNode) -> FNode:
        if attribute not in current.attributes:
            return current
        return current.with_attributes(
            tuple(a for a in current.attributes if a != attribute)
        )

    return Factorisation(fact.ftree.map_nodes(relabel), fact.roots)


# ---------------------------------------------------------------------------
# rename
# ---------------------------------------------------------------------------
def rename_tree(ftree: FTree, old: str, new: str) -> FTree:
    """Tree-level rename: attribute names live in the f-tree alone."""
    if new in ftree:
        raise OperatorError(f"attribute {new!r} already exists")
    node = ftree.node(old)

    def relabel(current: FNode) -> FNode:
        if current.name != node.name and old not in current.attributes:
            return current
        if current.aggregate is not None:
            aggregate = AggregateAttribute(
                current.aggregate.functions, current.aggregate.over, new
            )
            return FNode(aggregate, current.children, current.keys)
        attributes = tuple(new if a == old else a for a in current.attributes)
        return current.with_attributes(attributes)

    return ftree.map_nodes(relabel)


def rename(fact: Factorisation, old: str, new: str) -> Factorisation:
    """Rename an attribute (constant time: the fragments are untouched)."""
    return Factorisation(rename_tree(fact.ftree, old, new), fact.roots)


# ---------------------------------------------------------------------------
# nesting independent fragments (group-path linearisation)
# ---------------------------------------------------------------------------
@kernels.timed("nest")
def nest_under(fact: Factorisation, name: str, target_sibling: str) -> Factorisation:
    """Move a subtree below an *independent sibling* subtree.

    Valid because distinct children of one node are conditionally
    independent: the moved fragment is simply shared (by reference)
    under every value of the new parent, so the represented relation is
    unchanged while the f-tree becomes more deeply nested.  Used to
    linearise branching group-by regions into a path, which the result
    factorisation of an aggregate query requires (the aggregate value
    depends on every group attribute).
    """
    ftree = fact.ftree
    node = ftree.node(name)
    target = ftree.node(target_sibling)
    parent = ftree.parent(node)
    if parent is None or ftree.parent(target) is not parent:
        raise OperatorError(
            f"{name!r} and {target_sibling!r} must be siblings to nest"
        )
    s_idx = next(i for i, c in enumerate(parent.children) if c is node)
    t_idx = next(i for i, c in enumerate(parent.children) if c is target)

    new_target = target.with_children(tuple(target.children) + (node,))
    new_children = [
        (new_target if i == t_idx else c)
        for i, c in enumerate(parent.children)
        if i != s_idx
    ]
    new_parent = parent.with_children(new_children)
    new_ftree = ftree.replace_node(parent.name, lambda _: [new_parent])

    root_index, steps = ftree.path_to(parent.name)
    return map_cunion_level(
        fact, root_index, steps, kernels.nest_column(s_idx, t_idx), new_ftree
    )


@kernels.timed("nest")
def nest_root_under(fact: Factorisation, root_name: str, target: str) -> Factorisation:
    """Move a whole root tree below an arbitrary node of another tree.

    Roots of a forest are independent of everything else, so the moved
    fragment is context-free and can be shared under every value of the
    target node.
    """
    ftree = fact.ftree
    node = ftree.node(root_name)
    if ftree.parent(node) is not None:
        raise OperatorError(f"{root_name!r} is not a root")
    target_node = ftree.node(target)
    if target_node is node or ftree.is_ancestor(node, target_node):
        raise OperatorError("cannot nest a tree under its own subtree")
    r_idx = next(i for i, r in enumerate(ftree.roots) if r is node)

    new_target = target_node.with_children(
        tuple(target_node.children) + (node,)
    )
    pruned_roots = [r for i, r in enumerate(ftree.roots) if i != r_idx]
    pruned_fact_roots = [u for i, u in enumerate(fact.roots) if i != r_idx]
    pruned_tree = FTree(pruned_roots)
    new_ftree = pruned_tree.replace_node(target, lambda _: [new_target])

    pruned = Factorisation(pruned_tree, pruned_fact_roots)
    root_index, steps = pruned_tree.path_to(target)
    return map_cunion_level(
        pruned, root_index, steps, kernels.hang_below(fact.roots[r_idx]), new_ftree
    )


# ---------------------------------------------------------------------------
# product
# ---------------------------------------------------------------------------
def product(left: Factorisation, right: Factorisation) -> Factorisation:
    """E1 × E2: concatenate the forests (disjoint attribute names)."""
    ftree = FTree(left.ftree.roots + right.ftree.roots)
    return Factorisation(ftree, left.roots + right.roots)


# ---------------------------------------------------------------------------
# the γ aggregation operator (Section 3)
# ---------------------------------------------------------------------------
def aggregate_tree(
    ftree: FTree,
    parent_name: str | None,
    child_names: Sequence[str],
    functions: Sequence[tuple[str, str | None]],
    name: str | None = None,
) -> tuple[FTree, str]:
    """Tree-level γ_F(U): replace sibling subtrees U with one node F(U).

    Returns the new tree and the new node's name.  Dependency handling
    per Section 3: every remaining node that depended on a node of U
    receives a fresh shared key, which the new aggregate node also
    carries (it depends on each of them, and they on each other).
    """
    parent, indices = _resolve_subtrees(ftree, parent_name, child_names)
    subtrees = (
        [ftree.roots[i] for i in indices]
        if parent is None
        else [parent.children[i] for i in indices]
    )
    over: set[str] = set()
    removed_keys: set[str] = set()
    for subtree in subtrees:
        over |= subtree.subtree_atomic_attributes()
        removed_keys |= subtree.subtree_keys()
        for node in subtree.walk():
            if node.aggregate is not None:
                over |= set(node.aggregate.over)
    agg_name = name or fresh_aggregate_name()
    attribute = AggregateAttribute(tuple(functions), frozenset(over), agg_name)

    removed_names = set()
    for subtree in subtrees:
        removed_names |= subtree.subtree_names()
    dependents = {
        n.name
        for n in ftree.nodes()
        if n.name not in removed_names and (n.keys & removed_keys)
    }
    fresh = _fresh_dependency_key()
    new_node = FNode(attribute, (), {fresh})

    slot = indices[0]
    if parent is None:
        roots = [r for i, r in enumerate(ftree.roots) if i not in indices]
        roots.insert(_collapsed_slot(slot, indices), new_node)
        new_ftree = FTree(roots)
    else:
        children = [
            c for i, c in enumerate(parent.children) if i not in indices
        ]
        children.insert(_collapsed_slot(slot, indices), new_node)
        new_parent = parent.with_children(children)
        new_ftree = ftree.replace_node(parent.name, lambda _: [new_parent])
    if dependents:
        new_ftree = new_ftree.map_nodes(
            lambda n: n.with_keys(n.keys | {fresh})
            if n.name in dependents
            else n
        )
    return new_ftree, agg_name


def _collapsed_slot(first: int, indices: Sequence[int]) -> int:
    """Slot of the new node once the selected children are removed."""
    return first - sum(1 for i in indices if i < first)


def _resolve_subtrees(
    ftree: FTree, parent_name: str | None, child_names: Sequence[str]
) -> tuple[FNode | None, list[int]]:
    if not child_names:
        raise OperatorError("γ needs at least one subtree to aggregate")
    if parent_name is None:
        nodes = [ftree.node(name) for name in child_names]
        indices = []
        for node in nodes:
            matches = [i for i, root in enumerate(ftree.roots) if root is node]
            if not matches:
                raise OperatorError(
                    f"node {node.label()!r} is not a root of the f-tree"
                )
            indices.append(matches[0])
        return None, sorted(indices)
    parent = ftree.node(parent_name)
    indices = []
    for child_name in child_names:
        child = ftree.node(child_name)
        matches = [i for i, c in enumerate(parent.children) if c is child]
        if not matches:
            raise OperatorError(
                f"{child_name!r} is not a child of {parent_name!r}"
            )
        indices.append(matches[0])
    return parent, sorted(indices)


@kernels.timed("aggregate")
def apply_aggregation(
    fact: Factorisation,
    parent_name: str | None,
    child_names: Sequence[str],
    functions: Sequence[tuple],
    name: str | None = None,
    stats=None,
    bound: bool = False,
) -> Factorisation:
    """γ_F(U): replace each expression over U with ⟨F(U): v⟩ (Section 3.2).

    The values are computed by the linear-time recursion of
    :mod:`repro.core.kernels`, as one batch fold over the whole level
    of U's parent; ``stats`` records how products of factors were
    evaluated.  A context left without tuples of U (a selection
    drained it) represents no result tuples and is pruned, matching the
    SQL rule that empty groups do not appear; γ of the empty relation
    is an empty union, not a ⟨F(∅): v⟩ singleton.  With ``bound``, the
    components may also read the attributes of U's parent and of its
    ancestors: γ then folds every occurrence of a shared fragment apart,
    each with its own values of them.
    """
    ftree = fact.ftree
    parent, indices = _resolve_subtrees(ftree, parent_name, child_names)
    new_ftree, _ = aggregate_tree(
        ftree, parent_name, child_names, functions, name
    )
    slot = _collapsed_slot(indices[0], indices)
    child_nodes = [
        (ftree.roots if parent is None else parent.children)[i] for i in indices
    ]
    path = [*reversed(ftree.ancestors(parent)), parent] if bound else []
    components = kernels.context_components(
        child_nodes, tuple(functions), stats, [n.attributes for n in path]
    )

    if parent is None:
        # The roots are one context: zero or one aggregate value.
        _, found = components([[fact.roots[i]] for i in indices])
        roots = [u for i, u in enumerate(fact.roots) if i not in indices]
        roots.insert(slot, CUnion(found, ()))
        return Factorisation(new_ftree, roots)

    fold = kernels.fold_columns(components, indices, slot)
    root_index, steps = ftree.path_to(parent.name)
    return map_cunion_level(fact, root_index, steps, fold, new_ftree, bound)
