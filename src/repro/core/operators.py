"""F-plan operators: mappings between factorisations (Sections 2.1, 3, 4.2).

Every operator is placed once and replayed per run.  Its *placement*
reads the input f-tree and the step's arguments, never data, and
returns a :class:`Placement`:

- the output f-tree;
- the level the operator acts on: a root index and the child-index path
  down to it (:meth:`repro.core.ftree.FTree.path_to`), or the forest of
  roots for a root-level step;
- the batch kernel of :mod:`repro.core.kernels` and its arguments.

The optimiser's search reads only the output tree.
:meth:`repro.core.engine.FDBEngine.compile` keeps the whole placement,
and :meth:`Placement.run` replays it on the current data: the kernel is
built from its arguments and handed every union at that position — one
f-tree *level* — in a single call
(:func:`repro.core.frep.map_cunion_level`), which rebuilds only the
affected spine of the representation.  Fresh dependency keys and γ
names are minted by the placement, so the tree that runs is the tree
that was placed.

Operators preserve the two global invariants: values within each union
are sorted ascending, and no entry has an empty child union (∅ absorbs
through products, so emptiness is pruned upward on the spot).

Implemented operators:

==========================  ===============================================
``swap``                    χ_{A,B}: exchange a node with its parent (4.2)
``merge``                   selection A=B for sibling nodes (intersection)
``absorb``                  selection A=B when one node is the other's
                            descendant
``select``                  selection Aθc, or on an expression, in one
                            traversal
``remove_leaf``             projection step: drop a leaf node
``remove_class_attribute``  projection step: drop one name of a class
``rename``                  rename an attribute or aggregate
``nest_under``              nest a subtree below an independent sibling
``nest_root_under``         nest a root tree below a node of another tree
``aggregate``               the new γ_F(U) operator of Section 3
``product``                 cross product: concatenate forests (data only)
==========================  ===============================================
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

from repro.core import kernels
from repro.core.frep import CUnion, Factorisation, empty_cunion, map_cunion_level
from repro.core.ftree import (
    AggregateAttribute,
    FNode,
    FTree,
    fresh_aggregate_name,
)
from repro.obs import clock
from repro.obs.state import STATE
from repro.query import Comparison

#: When True, swap verifies that fragments independent of the swapped
#: node really are identical across contexts (costly; used in tests).
STRICT_SWAP_CHECKS = False

_dep_counter = [0]

_TIMERS = {
    label: kernels.KERNEL_SECONDS.labels(label)
    for label in (
        "swap", "merge", "absorb", "select", "remove_leaf", "nest", "aggregate"
    )
}


def _fresh_dependency_key() -> str:
    _dep_counter[0] += 1
    return f"__dep_{_dep_counter[0]}"


class OperatorError(ValueError):
    """Raised when an operator's applicability conditions fail."""


class Placement(NamedTuple):
    """One operator placed on an f-tree (see the module docstring).

    ``kernel(*args)`` builds the kernel: for a level (``root`` set) one
    that :func:`repro.core.frep.map_cunion_level` applies at ``path``
    below root ``root``, with each entry's path values when
    ``contexts``; for the forest (``root`` is None) one from the root
    unions to the new ones.  ``label`` names its wall time in
    ``repro_kernel_seconds`` (None: a tree-only step, not timed).
    """

    tree: FTree
    root: "int | None"
    path: tuple
    kernel: Callable
    args: tuple
    label: "str | None" = None
    contexts: bool = False

    def run(self, fact: Factorisation) -> Factorisation:
        """The operator on ``fact``, a factorisation over the f-tree it
        was placed on."""
        started = clock.now() if STATE.enabled and self.label else None
        kernel = self.kernel(*self.args)
        if self.root is None:
            out = Factorisation(self.tree, kernel(fact.roots))
        else:
            out = map_cunion_level(
                fact, self.root, self.path, kernel, self.tree, self.contexts
            )
        if started is not None:
            _TIMERS[self.label].observe(clock.now() - started)
        return out


def _tied(tree: FTree, names: set, key: str) -> FTree:
    """``tree`` with dependency ``key`` added to the nodes ``names``."""
    return tree.map_nodes(
        lambda n: n.with_keys(n.keys | {key}) if n.name in names else n
    )


def _unchanged() -> Callable:
    """Tree-only steps: every fragment stays as it is."""
    return lambda roots: roots


# ---------------------------------------------------------------------------
# swap χ_{A,B}
# ---------------------------------------------------------------------------
def swap(ftree: FTree, child_name: str) -> Placement:
    """χ_{A,B}: promote the named node B above its parent A (Section 4.2).

    Children of B that depend on A stay below A (the T_AB of Section
    4.2); independent children move up with B (T_B).  Dependency keys
    are untouched — a swap never changes the represented relation.  The
    kernel regroups A's level by B, linear in the affected fragments:
    each (a, b) pair is visited once; the union over B is assembled
    sorted.
    """
    node_b = ftree.node(child_name)
    node_a = ftree.parent(node_b)
    if node_a is None:
        raise OperatorError(f"node {child_name!r} is a root; nothing to swap")
    j = node_a.children.index(node_b)
    tb_idx: list[int] = []
    tab_idx: list[int] = []
    for i, child in enumerate(node_b.children):
        (tab_idx if child.subtree_keys() & node_a.keys else tb_idx).append(i)
    rest_idx = [i for i in range(len(node_a.children)) if i != j]
    new_a = node_a.with_children(
        [node_a.children[i] for i in rest_idx] + [node_b.children[i] for i in tab_idx]
    )
    new_b = node_b.with_children([node_b.children[i] for i in tb_idx] + [new_a])
    return Placement(
        ftree.replace_node(node_a.name, lambda _: [new_b]),
        *ftree.path_to(node_a.name),
        _pivot,
        (j, rest_idx, tb_idx, tab_idx),
        "swap",
    )


def _pivot(*indices) -> kernels.LevelKernel:
    check = _check_independent_fragments if STRICT_SWAP_CHECKS else None
    return kernels.pivot(*indices, check)


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
def merge(ftree: FTree, name_a: str, name_b: str) -> Placement:
    """σ_{A=B} for siblings: one node with the united class, keys and
    children; the kernel intersects the two sorted unions (linear)."""
    node_a, node_b = ftree.node(name_a), ftree.node(name_b)
    if node_a is node_b:
        raise OperatorError("cannot merge a node with itself")
    parent = ftree.parent(node_a)
    if ftree.parent(node_b) is not parent:
        raise OperatorError(
            f"merge requires sibling nodes; {node_a.label()!r} and "
            f"{node_b.label()!r} have different parents"
        )
    if node_a.is_aggregate or node_b.is_aggregate:
        raise OperatorError("cannot merge aggregate nodes")
    merged = FNode(
        node_a.attributes + node_b.attributes,
        node_a.children + node_b.children,
        node_a.keys | node_b.keys,
    )
    without_b = ftree.replace_node(node_b.name, lambda _: [])
    tree = without_b.replace_node(node_a.name, lambda _: [merged])
    siblings = ftree.roots if parent is None else parent.children
    ia, ib = siblings.index(node_a), siblings.index(node_b)
    # The merged node keeps A's slot, minus one if B preceded A.
    slot = ia - 1 if ib < ia else ia
    if parent is None:
        return Placement(tree, None, (), _merge_roots, (ia, ib, slot), "merge")
    return Placement(
        tree,
        *ftree.path_to(parent.name),
        kernels.intersect_columns,
        (ia, ib, slot),
        "merge",
    )


def _merge_roots(ia: int, ib: int, slot: int) -> Callable:
    def kernel(roots: Sequence[CUnion]) -> list[CUnion]:
        merged = kernels.intersect_cunions(roots[ia], roots[ib])
        rest = [u for i, u in enumerate(roots) if i != ia and i != ib]
        rest.insert(slot, merged)
        return rest

    return kernel


# ---------------------------------------------------------------------------
# absorb (selection A=B when one node is the other's descendant)
# ---------------------------------------------------------------------------
def absorb(ftree: FTree, ancestor_name: str, descendant_name: str) -> Placement:
    """σ_{A=B} with B below A: B's class joins A's and B's children
    take its place.

    The kernel filters, for every value ``a`` of the ancestor, the
    descendant union in each context below it to the single entry with
    value ``a`` (binary search in the sorted union) and splices its
    children in place; contexts with no match are pruned.
    """
    node_anc = ftree.node(ancestor_name)
    node_desc = ftree.node(descendant_name)
    if not ftree.is_ancestor(node_anc, node_desc):
        raise OperatorError(
            f"{ancestor_name!r} is not an ancestor of {descendant_name!r}"
        )
    if node_anc.is_aggregate or node_desc.is_aggregate:
        raise OperatorError("cannot absorb aggregate nodes")
    hoisted = ftree.replace_node(node_desc.name, lambda node: list(node.children))
    merged = FNode(
        node_anc.attributes + node_desc.attributes,
        hoisted.node(node_anc.name).children,
        node_anc.keys | node_desc.keys,
    )
    # Child-index path from the ancestor down to the descendant.
    spine = [node_desc]
    while spine[-1] is not node_anc:
        spine.append(ftree.parent(spine[-1]))
    spine.reverse()  # ancestor ... descendant
    rel_steps = [upper.children.index(lower) for upper, lower in zip(spine, spine[1:])]
    return Placement(
        hoisted.replace_node(node_anc.name, lambda _: [merged]),
        *ftree.path_to(node_anc.name),
        kernels.match_descendant,
        (rel_steps, len(node_desc.children)),
        "absorb",
    )


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------
def select(ftree: FTree, condition: Comparison, *more: Comparison) -> Placement:
    """σ_{AθC}: one filter pass cuts every union of A's level.

    ``more`` are further constant comparisons on A's node, tested in the
    same pass (a range ``lo <= A < hi`` is one traversal, not two).
    The unions are sorted (Section 4.1), so the survivors of order
    comparisons are a run of each and can be found by bisection.  An
    expression is tested at the deepest node it reads:
    once per distinct value if that is the only one, else per entry
    with its ancestors' values bound from its path, which must hold
    every node read (the planner's χ puts them on one path); the nodes
    it reads become dependent (a fresh shared key).  One that reads no
    attribute is tested once: false empties every root.

    The comparisons are the kernel's first argument, so a compiled
    selection runs with the constants of each binding.
    """
    conditions = (condition, *more)
    if any(each.is_expression for each in more):
        raise OperatorError("only constant comparisons share one σ")
    if condition.is_expression:
        return _select_expression(ftree, conditions)
    node = ftree.node(condition.attribute)
    for each in conditions:
        if ftree.node(each.attribute) is not node:
            raise OperatorError(f"σ[{each}] is not on the node of {node.name!r}")
    if node.is_aggregate and len(node.aggregate.functions) != 1:
        raise OperatorError(
            f"selection on composite aggregate {node.aggregate} is ambiguous"
        )
    return Placement(
        ftree, *ftree.path_to(node.name), _keep_values, (conditions, node.is_aggregate),
        "select",
    )


def _keep_values(
    conditions: Sequence[Comparison], aggregate: bool
) -> kernels.LevelKernel:
    tests = []
    for each in conditions:
        test = each.test
        # Which end of a sorted union an order comparison keeps.
        keeps_suffix = {">": True, ">=": True, "<": False, "<=": False}.get(each.op)
        if aggregate:
            test = lambda value, test=test: test(value[0])  # noqa: E731
            keeps_suffix = None  # component tuples sort as tuples
        tests.append((test, keeps_suffix))
    return kernels.keep_matching(tests)


def _select_expression(ftree: FTree, conditions: tuple) -> Placement:
    (condition,) = conditions
    names = condition.attribute.attributes()
    if not names:
        return Placement(ftree, None, (), _keep_all_or_none, (conditions,), "select")
    if not ftree.on_one_path(names):
        raise OperatorError(f"σ[{condition}] reads independent branches")
    depths = [ftree.depth(ftree.node(name)) for name in names]
    deepest = ftree.node(names[depths.index(max(depths))])
    read = {ftree.node(a).name for a in condition.attributes}
    tree = _tied(ftree, read, _fresh_dependency_key()) if len(read) > 1 else ftree
    return Placement(
        tree,
        *ftree.path_to(deepest.name),
        _keep_expression,
        (conditions, names, depths),
        "select",
        len(set(depths)) > 1,
    )


def _keep_expression(
    conditions: Sequence[Comparison], names: Sequence[str], depths: Sequence[int]
) -> kernels.LevelKernel:
    (condition,) = conditions
    expression = condition.attribute

    def test(values: Sequence) -> bool:
        return condition.test(expression.evaluate(dict(zip(names, values))))

    if len(set(depths)) > 1:
        return kernels.keep_bound(test, depths)
    return kernels.keep_matching([(lambda value: test([value] * len(names)), None)])


def _keep_all_or_none(conditions: Sequence[Comparison]) -> Callable:
    (condition,) = conditions
    if condition.test(condition.attribute.evaluate({})):
        return lambda roots: roots
    return lambda roots: [empty_cunion(len(u.children)) for u in roots]


# ---------------------------------------------------------------------------
# projection: remove a leaf, or one attribute of a class
# ---------------------------------------------------------------------------
def remove_leaf(ftree: FTree, name: str) -> Placement:
    """Projection step: drop a leaf; dependents of it become mutually
    dependent.

    No duplicate elimination is ever needed: distinct sibling structure
    is untouched, so the remaining representation stays a set.
    """
    node = ftree.node(name)
    if node.children:
        raise OperatorError(f"node {name!r} is not a leaf")
    if sum(len(list(root.walk())) for root in ftree.roots) == 1:
        raise OperatorError("cannot remove the only node of an f-tree")
    tree = ftree.replace_node(name, lambda _: [])
    dependents = {n.name for n in tree.nodes() if n.keys & node.keys}
    if len(dependents) > 1:
        tree = _tied(tree, dependents, _fresh_dependency_key())
    parent = ftree.parent(node)
    if parent is None:
        index = ftree.roots.index(node)
        return Placement(tree, None, (), _drop_root, (index,), "remove_leaf")
    index = parent.children.index(node)
    return Placement(
        tree, *ftree.path_to(parent.name), kernels.drop_column, (index,), "remove_leaf"
    )


def _drop_root(index: int) -> Callable:
    def kernel(roots: Sequence[CUnion]) -> list[CUnion]:
        rest = [u for i, u in enumerate(roots) if i != index]
        if not roots[index]:  # ∅ stays ∅: the other roots empty too
            rest = [empty_cunion(len(u.children)) for u in rest]
        return rest

    return kernel


def remove_class_attribute(ftree: FTree, attribute: str) -> Placement:
    """Drop an attribute from a multi-attribute class (fragments untouched).

    After a selection A=B merged two nodes, projecting away one of the
    equal attributes only changes the label — every singleton already
    carries the shared value for the remaining attribute.
    """
    node = ftree.node(attribute)
    if node.is_aggregate:
        raise OperatorError("aggregate attributes are removed via projection")
    if len(node.attributes) < 2:
        raise OperatorError(
            f"{attribute!r} is the only attribute of its node; "
            "use remove_leaf instead"
        )
    relabelled = node.with_attributes(tuple(a for a in node.attributes if a != attribute))
    return Placement(
        ftree.replace_node(node.name, lambda _: [relabelled]), None, (), _unchanged, ()
    )


# ---------------------------------------------------------------------------
# rename
# ---------------------------------------------------------------------------
def rename(ftree: FTree, old: str, new: str) -> Placement:
    """Rename an attribute: names live in the f-tree alone, so the
    fragments are untouched (constant time)."""
    if new in ftree:
        raise OperatorError(f"attribute {new!r} already exists")
    node = ftree.node(old)
    if node.aggregate is not None:
        label = AggregateAttribute(node.aggregate.functions, node.aggregate.over, new)
        renamed = FNode(label, node.children, node.keys)
    else:
        renamed = node.with_attributes([new if a == old else a for a in node.attributes])
    return Placement(
        ftree.replace_node(node.name, lambda _: [renamed]), None, (), _unchanged, ()
    )


# ---------------------------------------------------------------------------
# nesting independent fragments (group-path linearisation)
# ---------------------------------------------------------------------------
def nest_under(ftree: FTree, name: str, target_sibling: str) -> Placement:
    """Move a subtree below an *independent sibling* subtree.

    Valid because distinct children of one node are conditionally
    independent: the moved fragment is simply shared (by reference)
    under every value of the new parent, so the represented relation is
    unchanged while the f-tree becomes more deeply nested.  Used to
    linearise branching group-by regions into a path, which the result
    factorisation of an aggregate query requires (the aggregate value
    depends on every group attribute).
    """
    node = ftree.node(name)
    target = ftree.node(target_sibling)
    parent = ftree.parent(node)
    if parent is None or ftree.parent(target) is not parent:
        raise OperatorError(
            f"{name!r} and {target_sibling!r} must be siblings to nest"
        )
    s_idx = parent.children.index(node)
    t_idx = parent.children.index(target)
    new_target = target.with_children(tuple(target.children) + (node,))
    new_parent = parent.with_children(
        [new_target if i == t_idx else c for i, c in enumerate(parent.children) if i != s_idx]
    )
    return Placement(
        ftree.replace_node(parent.name, lambda _: [new_parent]),
        *ftree.path_to(parent.name),
        kernels.nest_column,
        (s_idx, t_idx),
        "nest",
    )


def nest_root_under(ftree: FTree, root_name: str, target: str) -> Placement:
    """Move a whole root tree below an arbitrary node of another tree.

    Roots of a forest are independent of everything else, so the moved
    fragment is context-free and can be shared under every value of the
    target node.
    """
    node = ftree.node(root_name)
    if ftree.parent(node) is not None:
        raise OperatorError(f"{root_name!r} is not a root")
    target_node = ftree.node(target)
    if target_node is node or ftree.is_ancestor(node, target_node):
        raise OperatorError("cannot nest a tree under its own subtree")
    moved = ftree.roots.index(node)
    new_target = target_node.with_children(tuple(target_node.children) + (node,))
    pruned = FTree([r for i, r in enumerate(ftree.roots) if i != moved])
    return Placement(
        pruned.replace_node(target, lambda _: [new_target]),
        None,
        (),
        _hang_root,
        (moved, pruned, *pruned.path_to(target)),
        "nest",
    )


def _hang_root(moved: int, pruned: FTree, root: int, path: tuple) -> Callable:
    def kernel(roots: Sequence[CUnion]) -> tuple[CUnion, ...]:
        rest = Factorisation(pruned, [u for i, u in enumerate(roots) if i != moved])
        hang = kernels.hang_below(roots[moved])
        return map_cunion_level(rest, root, path, hang, pruned).roots

    return kernel


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
def aggregate(
    ftree: FTree,
    parent_name: str | None,
    child_names: Sequence[str],
    functions: Sequence[tuple],
    name: str | None = None,
    stats=None,
    bound: bool = False,
) -> Placement:
    """γ_F(U): replace sibling subtrees U with one node F(U) (Section 3).

    Dependency handling per Section 3: every remaining node that
    depended on a node of U receives a fresh shared key, which the new
    aggregate node also carries (it depends on each of them, and they
    on each other).  The new node is named ``name`` (by default a fresh
    name).

    The kernel replaces each expression over U with ⟨F(U): v⟩ (Section
    3.2): the linear-time recursion of :mod:`repro.core.kernels`, as one
    batch fold over the whole level of U's parent; ``stats`` records how
    products of factors were evaluated.  A context left without tuples
    of U (a selection drained it) represents no result tuples and is
    pruned, matching the SQL rule that empty groups do not appear; γ of
    the empty relation is an empty union, not a ⟨F(∅): v⟩ singleton.
    With ``bound``, the components may also read the attributes of U's
    parent and of its ancestors: γ then folds every occurrence of a
    shared fragment apart, each with its own values of them.
    """
    parent, indices = _resolve_subtrees(ftree, parent_name, child_names)
    siblings = ftree.roots if parent is None else parent.children
    subtrees = [siblings[i] for i in indices]
    over: set[str] = set()
    removed_keys: set[str] = set()
    removed_names: set[str] = set()
    for subtree in subtrees:
        over |= subtree.subtree_atomic_attributes()
        removed_keys |= subtree.subtree_keys()
        removed_names |= subtree.subtree_names()
        for node in subtree.walk():
            if node.aggregate is not None:
                over |= set(node.aggregate.over)
    attribute = AggregateAttribute(
        tuple(functions), frozenset(over), name or fresh_aggregate_name()
    )
    dependents = {
        n.name
        for n in ftree.nodes()
        if n.name not in removed_names and (n.keys & removed_keys)
    }
    fresh = _fresh_dependency_key()
    # The new node takes the first selected child's slot.
    slot = indices[0]
    kept = [c for i, c in enumerate(siblings) if i not in indices]
    kept.insert(slot, FNode(attribute, (), {fresh}))
    if parent is None:
        tree = FTree(kept)
    else:
        new_parent = parent.with_children(kept)
        tree = ftree.replace_node(parent.name, lambda _: [new_parent])
    if dependents:
        tree = _tied(tree, dependents, fresh)
    context = (
        [n.attributes for n in [*reversed(ftree.ancestors(parent)), parent]]
        if bound
        else []
    )
    args = (subtrees, tuple(functions), stats, context, indices, slot)
    if parent is None:
        return Placement(tree, None, (), _fold_roots, args, "aggregate")
    return Placement(
        tree, *ftree.path_to(parent.name), _fold_level, args, "aggregate", bound
    )


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


def _fold_level(child_nodes, functions, stats, context, indices, slot) -> Callable:
    components = kernels.context_components(child_nodes, functions, stats, context)
    return kernels.fold_columns(components, indices, slot)


def _fold_roots(child_nodes, functions, stats, context, indices, slot) -> Callable:
    components = kernels.context_components(child_nodes, functions, stats, context)

    def kernel(roots: Sequence[CUnion]) -> list[CUnion]:
        # The roots are one context: zero or one aggregate value.
        _, found = components([[roots[i]] for i in indices])
        rest = [u for i, u in enumerate(roots) if i not in indices]
        rest.insert(slot, CUnion(found, ()))
        return rest

    return kernel
