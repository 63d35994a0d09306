"""Batch kernels over the columnar factorisation layout.

Each kernel is the columnar twin of one f-plan operator in
:mod:`repro.core.operators`: same tree-level effect, same pruning and
sortedness invariants (Section 4.1), but evaluated as whole-union array
passes — one Python-level call per union, not one per value.  The
operators module dispatches here when a factorisation is a
:class:`repro.core.frep.ColumnarFactorisation`.

Kernel wall time is recorded in the ``repro_kernel_seconds`` histogram
(one label per kernel) so the speed win is observable in server mode.

An optional numpy fast path (``REPRO_NUMPY=1``) accelerates sorted
intersection of large numeric value arrays; it is off by default and
every kernel is complete without it.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from functools import wraps
from typing import Any, Sequence

from repro.core import aggregates as agg
from repro.core import operators as ops
from repro.core.frep import (
    ColumnarFactorisation,
    CUnion,
    empty_cunion,
    map_cunion_at,
)
from repro.core.ftree import FNode, FTree
from repro.expr import Expr
from repro.obs import clock
from repro.obs.metrics import metrics
from repro.obs.state import STATE
from repro.query import Comparison

_NUMPY = None
if os.environ.get("REPRO_NUMPY", "").strip().lower() in {"1", "true", "yes", "on"}:
    try:  # pragma: no cover - environment-dependent
        import numpy as _NUMPY  # type: ignore[no-redef]
    except ImportError:  # pragma: no cover
        _NUMPY = None

#: Minimum union length before the numpy intersection path engages
#: (below this the conversion overhead dominates).
_NUMPY_MIN_LENGTH = 64

KERNEL_SECONDS = metrics().histogram(
    "repro_kernel_seconds",
    "Wall time of one columnar kernel invocation",
    ("kernel",),
)


def timed(name: str):
    """Decorator recording a function's wall time as kernel ``name``."""
    child = KERNEL_SECONDS.labels(name)

    def decorate(fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not STATE.enabled:
                return fn(*args, **kwargs)
            started = clock.now()
            try:
                return fn(*args, **kwargs)
            finally:
                child.observe(clock.now() - started)

        return wrapper

    return decorate


# ---------------------------------------------------------------------------
# swap χ_{A,B}
# ---------------------------------------------------------------------------
@timed("swap")
def swap_c(fact: ColumnarFactorisation, child_name: str) -> ColumnarFactorisation:
    """Columnar χ_{A,B}: regroup by B before A in one pass per union."""
    ftree = fact.ftree
    node_b = ftree.node(child_name)
    node_a = ftree.parent(node_b)
    if node_a is None:
        raise ops.OperatorError(
            f"node {child_name!r} is a root; nothing to swap"
        )
    j = next(i for i, child in enumerate(node_a.children) if child is node_b)
    new_b, tb_idx, tab_idx = ops._swapped_nodes(node_a, node_b)
    new_ftree = ftree.replace_node(node_a.name, lambda _: [new_b])

    rest_idx = [i for i in range(len(node_a.children)) if i != j]
    strict = ops.STRICT_SWAP_CHECKS

    if not tb_idx and not tab_idx and not rest_idx:
        # Pure two-level inversion: A has no other children and B keeps
        # nothing above or below, so the pivot is b -> [a, ...] with no
        # per-pair bookkeeping.  Ascending a-iteration keeps each
        # regrouped union sorted without a per-union sort.
        def invert(_: FNode, union_a: CUnion) -> CUnion:
            b_col = union_a.children[j]
            collected: dict[Any, list] = {}
            collected_get = collected.get
            for ai, a_value in enumerate(union_a.values):  # repro: allow[kernel-scalar-loop] -- regrouping pivot: each (a, b) pair moves once
                for b_value in b_col[ai].values:  # repro: allow[kernel-scalar-loop] -- see above
                    got = collected_get(b_value)
                    if got is None:
                        collected[b_value] = [a_value]
                    else:
                        got.append(a_value)
            values = sorted(collected)
            return CUnion(
                values, ([CUnion(collected[v], ()) for v in values],)
            )

        root_index, steps = ftree.path_to(node_a.name)
        return map_cunion_at(fact, root_index, steps, invert, new_ftree)

    def transform(_: FNode, union_a: CUnion) -> CUnion:
        a_values = union_a.values
        a_cols = union_a.children
        b_col = a_cols[j]
        # b_value -> (T_B fragments, [(a_value, ai, b_cols, bi), ...]);
        # the pivot records each (a, b) pair once, and the under-union
        # columns are materialised per b-value with one comprehension
        # per column instead of per-pair appends.
        collected: dict[Any, tuple] = {}
        collected_get = collected.get
        for ai, a_value in enumerate(a_values):  # repro: allow[kernel-scalar-loop] -- regrouping pivot: each (a, b) pair moves once
            b_union = b_col[ai]
            b_cols = b_union.children
            for bi, b_value in enumerate(b_union.values):  # repro: allow[kernel-scalar-loop] -- see above
                record = collected_get(b_value)
                if record is None:
                    collected[b_value] = (
                        [b_cols[i][bi] for i in tb_idx],
                        [(a_value, ai, b_cols, bi)],
                    )
                    continue
                if strict:
                    _check_independent_cfragments(
                        record[0], [b_cols[i][bi] for i in tb_idx]
                    )
                record[1].append((a_value, ai, b_cols, bi))
        values = sorted(collected)
        tb_out = tuple(
            [collected[value][0][t] for value in values]
            for t in range(len(tb_idx))
        )
        under_col = []
        for value in values:  # repro: allow[kernel-scalar-loop] -- one union object built per b-value
            pairs = collected[value][1]
            under_cols = [
                [a_cols[i][p[1]] for p in pairs] for i in rest_idx
            ] + [[p[2][i][p[3]] for p in pairs] for i in tab_idx]
            under_col.append(
                CUnion([p[0] for p in pairs], tuple(under_cols))
            )
        return CUnion(values, tb_out + (under_col,))

    root_index, steps = ftree.path_to(node_a.name)
    return map_cunion_at(fact, root_index, steps, transform, new_ftree)


def _check_independent_cfragments(first: list, second: list) -> None:
    if _cfragments_signature(first) != _cfragments_signature(second):
        raise ops.OperatorError(
            "swap invariant violated: fragments declared independent of the "
            "old parent differ across its values (path constraint broken?)"
        )


def _cfragments_signature(fragments: Sequence[CUnion]) -> tuple:
    def sig(union: CUnion) -> tuple:
        return (
            tuple(union.values),
            tuple(tuple(sig(sub) for sub in col) for col in union.children),
        )

    return tuple(sig(union) for union in fragments)


# ---------------------------------------------------------------------------
# merge (selection A=B on sibling nodes)
# ---------------------------------------------------------------------------
def intersect_cunions(left: CUnion, right: CUnion) -> CUnion:
    """Sorted intersection; matched entries concatenate child columns."""
    left_values = left.values
    right_values = right.values
    if (
        _NUMPY is not None
        and len(left_values) >= _NUMPY_MIN_LENGTH
        and len(right_values) >= _NUMPY_MIN_LENGTH
    ):
        fast = _numpy_intersect(left_values, right_values)
        if fast is not None:
            values, keep_left, keep_right = fast
            return CUnion(
                values,
                tuple([col[i] for i in keep_left] for col in left.children)
                + tuple([col[i] for i in keep_right] for col in right.children),
            )
    values = []
    keep_left: list[int] = []
    keep_right: list[int] = []
    i = j = 0
    end_left = len(left_values)
    end_right = len(right_values)
    while i < end_left and j < end_right:
        lv = left_values[i]
        rv = right_values[j]
        if lv < rv:
            i += 1
        elif rv < lv:
            j += 1
        else:
            values.append(lv)
            keep_left.append(i)
            keep_right.append(j)
            i += 1
            j += 1
    return CUnion(
        values,
        tuple([col[i] for i in keep_left] for col in left.children)
        + tuple([col[j] for j in keep_right] for col in right.children),
    )


def _numpy_intersect(left_values: list, right_values: list):
    """np.intersect1d over numeric arrays; None when not applicable."""
    try:
        left_arr = _NUMPY.asarray(left_values)
        right_arr = _NUMPY.asarray(right_values)
    except (TypeError, ValueError):  # pragma: no cover - defensive
        return None
    if left_arr.dtype == object or right_arr.dtype == object:
        return None
    values, keep_left, keep_right = _NUMPY.intersect1d(
        left_arr, right_arr, assume_unique=True, return_indices=True
    )
    # Back to plain Python objects: numpy scalars must never leak into
    # value arrays (they are not JSON-serialisable and surprise pickles).
    return values.tolist(), keep_left.tolist(), keep_right.tolist()


@timed("merge")
def merge_siblings_c(
    fact: ColumnarFactorisation, name_a: str, name_b: str
) -> ColumnarFactorisation:
    """σ_{A=B} for siblings on the columnar layout."""
    ftree = fact.ftree
    node_a, node_b = ftree.node(name_a), ftree.node(name_b)
    ops._require_siblings(ftree, node_a, node_b)
    parent = ftree.parent(node_a)
    new_ftree = ops.merge_tree(ftree, name_a, name_b)

    if parent is None:
        ia = next(i for i, n in enumerate(ftree.roots) if n is node_a)
        ib = next(i for i, n in enumerate(ftree.roots) if n is node_b)
        merged = intersect_cunions(fact.roots[ia], fact.roots[ib])
        roots = ops._reposition_roots(fact.roots, ia, ib, merged)
        return ColumnarFactorisation(new_ftree, roots)

    ia = next(i for i, n in enumerate(parent.children) if n is node_a)
    ib = next(i for i, n in enumerate(parent.children) if n is node_b)
    slot = ops._merged_slot(ia, ib)

    def transform(_: FNode, union: CUnion) -> CUnion:
        values = union.values
        cols = union.children
        col_a = cols[ia]
        col_b = cols[ib]
        merged_col: list[CUnion] = []
        keep: list[int] = []
        for i in range(len(values)):
            merged = intersect_cunions(col_a[i], col_b[i])
            if not merged.values:
                continue  # the selection empties this context: prune
            keep.append(i)
            merged_col.append(merged)
        rest = [c for c in range(len(cols)) if c != ia and c != ib]
        out_cols = [[cols[c][i] for i in keep] for c in rest]
        out_cols.insert(slot, merged_col)
        return CUnion([values[i] for i in keep], tuple(out_cols))

    root_index, steps = ftree.path_to(parent.name)
    return map_cunion_at(fact, root_index, steps, transform, new_ftree)


# ---------------------------------------------------------------------------
# absorb (selection A=B when one node is the other's descendant)
# ---------------------------------------------------------------------------
@timed("absorb")
def absorb_c(
    fact: ColumnarFactorisation, ancestor_name: str, descendant_name: str
) -> ColumnarFactorisation:
    """σ_{A=B} with B below A: bisect B's value arrays per context."""
    ftree = fact.ftree
    node_anc = ftree.node(ancestor_name)
    node_desc = ftree.node(descendant_name)
    if not ftree.is_ancestor(node_anc, node_desc):
        raise ops.OperatorError(
            f"{ancestor_name!r} is not an ancestor of {descendant_name!r}"
        )
    new_ftree = ops.absorb_tree(ftree, ancestor_name, descendant_name)

    spine = [node_desc]
    current = ftree.parent(node_desc)
    while current is not node_anc:
        spine.append(current)
        current = ftree.parent(current)
    spine.append(node_anc)
    spine.reverse()  # ancestor ... descendant
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

    def filter_union(node: FNode, union: CUnion, steps: Sequence[int], value: Any) -> CUnion:
        """Keep entries whose descendant (at ``steps``) holds ``value``."""
        step = steps[0]
        cols = union.children
        col = cols[step]
        if len(steps) == 1:
            k_desc = len(node.children[step].children)
            matched_cols: list[list[CUnion]] = [[] for _ in range(k_desc)]
            keep: list[int] = []
            for i, sub in enumerate(col):
                sub_values = sub.values
                index = bisect_left(sub_values, value)
                if index == len(sub_values) or sub_values[index] != value:
                    continue
                keep.append(i)
                for c in range(k_desc):
                    matched_cols[c].append(sub.children[c][index])
            out_cols: list[list[CUnion]] = []
            for c in range(len(cols)):
                if c == step:
                    out_cols.extend(matched_cols)
                else:
                    out_cols.append([cols[c][i] for i in keep])
            return CUnion([union.values[i] for i in keep], tuple(out_cols))
        new_col: list[CUnion] = []
        keep = []
        for i, sub in enumerate(col):
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

    def transform(node: FNode, union: CUnion) -> CUnion:
        values = union.values
        cols = union.children
        step = rel_steps[0]
        keep: list[int] = []
        entry_children: list[tuple] = []
        for i, value in enumerate(values):  # repro: allow[kernel-scalar-loop] -- each context filters by its own value
            sub = cols[step][i]
            if direct:
                sub_values = sub.values
                index = bisect_left(sub_values, value)
                if index == len(sub_values) or sub_values[index] != value:
                    continue
                matched = tuple(col[index] for col in sub.children)
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
        if not entry_children:
            out_cols = tuple([] for _ in range(out_arity))
        return CUnion([values[i] for i in keep], out_cols)

    root_index, steps = ftree.path_to(node_anc.name)
    return map_cunion_at(fact, root_index, steps, transform, new_ftree)


# ---------------------------------------------------------------------------
# constant selection
# ---------------------------------------------------------------------------
@timed("select")
def select_constant_c(
    fact: ColumnarFactorisation, condition: Comparison
) -> ColumnarFactorisation:
    """σ_{AθC}: one filter pass over the value array of A's unions."""
    ftree = fact.ftree
    node = ftree.node(condition.attribute)
    component: int | None = None
    if node.is_aggregate:
        component = ops._scalar_component(node.aggregate)
    test = condition.test

    def transform(_: FNode, union: CUnion) -> CUnion:
        values = union.values
        if component is None:
            keep = [i for i, value in enumerate(values) if test(value)]
        else:
            keep = [
                i for i, value in enumerate(values) if test(value[component])
            ]
        if len(keep) == len(values):
            return union  # nothing filtered: share the fragment unchanged
        return CUnion(
            [values[i] for i in keep],
            tuple([col[i] for i in keep] for col in union.children),
        )

    root_index, steps = ftree.path_to(node.name)
    return map_cunion_at(fact, root_index, steps, transform, fact.ftree)


# ---------------------------------------------------------------------------
# projection: remove a leaf
# ---------------------------------------------------------------------------
@timed("remove_leaf")
def remove_leaf_c(fact: ColumnarFactorisation, name: str) -> ColumnarFactorisation:
    """Projection step: drop a leaf's column everywhere it occurs."""
    ftree = fact.ftree
    node = ftree.node(name)
    if node.children:
        raise ops.OperatorError(f"node {name!r} is not a leaf")
    new_ftree = ops.remove_leaf_tree(ftree, name)
    parent = ftree.parent(node)

    if parent is None:
        index = next(i for i, n in enumerate(ftree.roots) if n is node)
        if not fact.roots[index]:
            raise ops.OperatorError(
                "cannot project away the only empty fragment of ∅"
            )
        roots = [u for i, u in enumerate(fact.roots) if i != index]
        return ColumnarFactorisation(new_ftree, roots)

    index = next(i for i, n in enumerate(parent.children) if n is node)

    def transform(_: FNode, union: CUnion) -> CUnion:
        cols = union.children
        return CUnion(union.values, cols[:index] + cols[index + 1 :])

    root_index, steps = ftree.path_to(parent.name)
    return map_cunion_at(fact, root_index, steps, transform, new_ftree)


# ---------------------------------------------------------------------------
# nesting independent fragments (group-path linearisation)
# ---------------------------------------------------------------------------
@timed("nest")
def nest_under_c(
    fact: ColumnarFactorisation, name: str, target_sibling: str
) -> ColumnarFactorisation:
    """Move a subtree below an independent sibling, sharing by reference."""
    ftree = fact.ftree
    node = ftree.node(name)
    target = ftree.node(target_sibling)
    parent = ftree.parent(node)
    if parent is None or ftree.parent(target) is not parent:
        raise ops.OperatorError(
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

    new_t_slot = t_idx - 1 if s_idx < t_idx else t_idx

    def transform(_: FNode, union: CUnion) -> CUnion:
        cols = union.children
        moved_col = cols[s_idx]
        rest = [cols[c] for c in range(len(cols)) if c != s_idx]
        target_col = rest[new_t_slot]
        rest[new_t_slot] = [
            CUnion(
                t.values,
                t.children + ([moved_col[i]] * len(t.values),),
            )
            for i, t in enumerate(target_col)
        ]
        return CUnion(union.values, tuple(rest))

    root_index, steps = ftree.path_to(parent.name)
    return map_cunion_at(fact, root_index, steps, transform, new_ftree)


@timed("nest")
def nest_root_under_c(
    fact: ColumnarFactorisation, root_name: str, target: str
) -> ColumnarFactorisation:
    """Move a whole root tree below a node of another tree (shared)."""
    ftree = fact.ftree
    node = ftree.node(root_name)
    if ftree.parent(node) is not None:
        raise ops.OperatorError(f"{root_name!r} is not a root")
    target_node = ftree.node(target)
    if target_node is node or ftree.is_ancestor(node, target_node):
        raise ops.OperatorError("cannot nest a tree under its own subtree")
    r_idx = next(i for i, r in enumerate(ftree.roots) if r is node)
    moved_union = fact.roots[r_idx]

    new_target = target_node.with_children(
        tuple(target_node.children) + (node,)
    )
    pruned_roots = [r for i, r in enumerate(ftree.roots) if i != r_idx]
    pruned_fact_roots = [u for i, u in enumerate(fact.roots) if i != r_idx]
    pruned_tree = FTree(pruned_roots)
    new_ftree = pruned_tree.replace_node(target, lambda _: [new_target])

    def transform(_: FNode, union: CUnion) -> CUnion:
        return CUnion(
            union.values,
            union.children + ([moved_union] * len(union.values),),
        )

    pruned = ColumnarFactorisation(pruned_tree, pruned_fact_roots)
    root_index, steps = pruned_tree.path_to(target)
    return map_cunion_at(pruned, root_index, steps, transform, new_ftree)


# ---------------------------------------------------------------------------
# the γ aggregation operator (Section 3)
# ---------------------------------------------------------------------------
@timed("aggregate")
def apply_aggregation_c(
    fact: ColumnarFactorisation,
    parent_name: str | None,
    child_names: Sequence[str],
    functions: Sequence[tuple[str, "str | Expr | None"]],
    name: str | None = None,
) -> ColumnarFactorisation:
    """γ_F(U) as a batch fold: carriers located once, columns shared.

    The legacy operator re-resolves each component's carrier fragment
    and recomputes child counts for every parent entry; here the
    carrier is located once per union and the per-child count arrays
    are computed once and shared between the count and sum components
    — the dominant saving on fig4-style aggregate queries.
    """
    ftree = fact.ftree
    parent, indices = ops._resolve_subtrees(ftree, parent_name, child_names)
    new_ftree, agg_name = ops.aggregate_tree(
        ftree, parent_name, child_names, functions, name
    )
    index_set = set(indices)
    functions = tuple(functions)
    slot = ops._collapsed_slot(indices[0], indices)

    if parent is None:
        items = [(ftree.roots[i], fact.roots[i]) for i in indices]
        roots = [u for i, u in enumerate(fact.roots) if i not in index_set]
        if agg.forest_is_empty(items):
            union = empty_cunion(0)
        else:
            union = CUnion([agg.evaluate_components(functions, items)], ())
        roots.insert(slot, union)
        return ColumnarFactorisation(new_ftree, roots)

    child_nodes = [parent.children[i] for i in indices]
    scalar_fallback = any(
        isinstance(attribute, Expr) for _, attribute in functions
    )
    # One shared-fragment cache for the whole operator application:
    # restructured factorisations share subtrees across parent entries.
    memo: dict = {}

    def transform(_: FNode, union: CUnion) -> CUnion:
        values = union.values
        cols = union.children
        agg_cols = [cols[i] for i in indices]
        # Emptiness mask first: dropped contexts must never be evaluated
        # (extrema over ∅ raise; SQL drops empty groups).  Computed per
        # column so leaf and aggregate-leaf children fuse; when no entry
        # is dropped the input columns are reused without copying.
        dead = None
        for node, col in zip(child_nodes, agg_cols):
            mask = _empty_col(node, col, memo)
            dead = mask if dead is None else [d or m for d, m in zip(dead, mask)]
        if dead is not None and any(dead):
            keep = [i for i, d in enumerate(dead) if not d]
            values = [values[i] for i in keep]
            agg_cols = [[col[i] for i in keep] for col in agg_cols]
        else:
            keep = None
        if scalar_fallback:
            agg_values = [
                agg.evaluate_components(  # repro: allow[kernel-scalar-loop] -- expression aggregates stay per-entry
                    functions,
                    [
                        (node, col[i])
                        for node, col in zip(child_nodes, agg_cols)
                    ],
                )
                for i in range(len(values))
            ]
        else:
            agg_values = _batch_components(
                functions, child_nodes, agg_cols, len(values), memo
            )
        agg_col = [CUnion([value], ()) for value in agg_values]
        if keep is None:
            out_cols = [cols[c] for c in range(len(cols)) if c not in index_set]
        else:
            out_cols = [
                [cols[c][i] for i in keep]
                for c in range(len(cols))
                if c not in index_set
            ]
        out_cols.insert(slot, agg_col)
        return CUnion(values, tuple(out_cols))

    root_index, steps = ftree.path_to(parent.name)
    return map_cunion_at(fact, root_index, steps, transform, new_ftree)


_MISSING = object()


def _plain_leaf(node: FNode, memo: dict) -> bool:
    """Whether ``node`` is a childless atomic class (cached per node).

    Leaf fragments dominate the recursion fan-out, so their evaluation
    is fused into the caller's comprehension instead of paying one
    Python call per leaf union.
    """
    key = ("leaf", id(node))
    got = memo.get(key)
    if got is None:
        got = memo[key] = node.aggregate is None and not node.children
    return got


def _agg_leaf(child: FNode, memo: dict) -> tuple:
    """``(is_aggregate_leaf, count_component_or_None)`` cached per node.

    Aggregate leaves are the γ-produced ``__agg`` nodes; fusing them in
    the column passes below skips one recursion level.  A leaf that
    retains no count component (pure Σ) still reports ``True`` — the
    callers decide whether that is fusable (emptiness) or must fall
    through to the strict path (counting raises, Prop. 2)."""
    key = ("aleaf", id(child))
    got = memo.get(key)
    if got is None:
        if child.aggregate is not None and not child.children:
            got = (True, child.aggregate.count_component)
        else:
            got = (False, None)
        memo[key] = got
    return got


def _count_col(child: FNode, col, memo: dict) -> list:
    """Counts of one child column, with the leaf cases fused."""
    if _plain_leaf(child, memo):
        # A plain leaf fragment counts its entries in either layout.
        return [
            len(sub.values) if type(sub) is CUnion else len(sub)
            for sub in col
        ]
    is_leaf, component = _agg_leaf(child, memo)
    if is_leaf and component is not None:
        # Aggregate leaf: the count is the fold of count components.
        return [
            sum(value[component] for value in sub.values)
            if type(sub) is CUnion
            else agg.count_union(child, sub)
            for sub in col
        ]
    return [_memo_count(child, sub, memo) for sub in col]


def _empty_col(node: FNode, col, memo: dict) -> list:
    """Per-entry emptiness of one child column (leaf cases fused)."""
    if _plain_leaf(node, memo):
        # A plain leaf union is empty iff it has no values.
        return [
            (not sub.values)
            if type(sub) is CUnion
            else agg.union_is_empty(node, sub)
            for sub in col
        ]
    is_leaf, component = _agg_leaf(node, memo)
    if is_leaf:
        if component is None:
            # No count component: any retained entry is live.
            return [
                (not sub.values)
                if type(sub) is CUnion
                else agg.union_is_empty(node, sub)
                for sub in col
            ]
        # Aggregate leaf: dead iff every entry's count component is 0.
        return [
            not (
                sub.values
                and any(value[component] for value in sub.values)
            )
            if type(sub) is CUnion
            else agg.union_is_empty(node, sub)
            for sub in col
        ]
    return [_memo_is_empty(node, sub, memo) for sub in col]


def _memo_count(node: FNode, union, memo: dict) -> int:
    """Memoised twin of :func:`repro.core.aggregates.count_union`.

    Restructuring operators (swap, nest) share fragments instead of
    copying them, so the same union object recurs under many parent
    entries; one γ application evaluates each shared subtree once.
    Keys pair object identities — every keyed object is kept alive by
    the factorisation for the whole operator application.
    """
    if type(union) is not CUnion:
        return agg.count_union(node, union)
    key = ("c", id(node), id(union))
    got = memo.get(key, _MISSING)
    if got is not _MISSING:
        return got
    values = union.values
    cols = union.children
    if node.aggregate is None:
        acc = None  # all multiplicities are 1
    else:
        component = agg._count_component(node)
        acc = [value[component] for value in values]
    if not cols:
        got = len(values) if acc is None else sum(acc)
    else:
        for child, col in zip(node.children, cols):
            counts = _count_col(child, col, memo)
            acc = counts if acc is None else [a * c for a, c in zip(acc, counts)]
        got = sum(acc)
    memo[key] = got
    return got


def _sum_meta(attribute: str, node: FNode, memo: dict) -> tuple:
    """Carrier decision for Σ at ``node`` — the subtree walk of
    ``_carries``/``_locate_nodes`` resolved once per node, not per
    fragment visit."""
    key = ("sm", attribute, id(node))
    meta = memo.get(key)
    if meta is None:
        if agg._carries(node, attribute, "sum") == "here":
            component = (
                None
                if node.aggregate is None
                else node.aggregate.sum_component(attribute)
            )
            meta = ("here", component)
        else:
            meta = (
                "below",
                agg._locate_nodes(node.children, attribute, "sum"),
            )
        memo[key] = meta
    return meta


def _memo_sum(attribute: str, node: FNode, union, memo: dict):
    """Memoised twin of :func:`repro.core.aggregates.sum_union`."""
    if type(union) is not CUnion:
        return agg.sum_union(attribute, node, union)
    key = ("s", attribute, id(node), id(union))
    got = memo.get(key, _MISSING)
    if got is not _MISSING:
        return got
    carrier, where = _sum_meta(attribute, node, memo)
    values = union.values
    cols = union.children
    if carrier == "here":
        acc = (
            list(values)
            if where is None
            else [value[where] for value in values]
        )
        for child, col in zip(node.children, cols):
            counts = _count_col(child, col, memo)
            acc = [a * c for a, c in zip(acc, counts)]
        got = sum(acc)
    else:
        children = node.children
        carrier_node = children[where]
        if _plain_leaf(carrier_node, memo):
            # Leaf carrier: Σ of each sub-union is the sum of its own
            # (atomic) values — fused, no per-union recursion.
            acc = [
                sum(sub.values)
                if type(sub) is CUnion
                else agg.sum_union(attribute, carrier_node, sub)
                for sub in cols[where]
            ]
        else:
            acc = [
                _memo_sum(attribute, carrier_node, sub, memo)
                for sub in cols[where]
            ]
        for c, child in enumerate(children):
            if c == where:
                continue
            counts = _count_col(child, cols[c], memo)
            acc = [a * k for a, k in zip(acc, counts)]
        if node.aggregate is not None:
            component = agg._count_component(node)
            acc = [a * value[component] for a, value in zip(acc, values)]
        got = sum(acc)
    memo[key] = got
    return got


def _extremum_meta(
    function: str, attribute: str, node: FNode, memo: dict
) -> tuple:
    """Per-node carrier decision for min/max (see :func:`_sum_meta`)."""
    key = ("mm", function, attribute, id(node))
    meta = memo.get(key)
    if meta is None:
        if agg._carries(node, attribute, function) == "here":
            component = (
                None
                if node.aggregate is None
                else node.aggregate.component(function, attribute)
            )
            meta = ("here", component)
        else:
            meta = (
                "below",
                agg._locate_nodes(node.children, attribute, function),
            )
        memo[key] = meta
    return meta


def _memo_extremum(
    function: str, attribute: str, node: FNode, union, memo: dict
):
    """Memoised twin of :func:`repro.core.aggregates.extremum_union`."""
    if type(union) is not CUnion:
        return agg.extremum_union(function, attribute, node, union)
    key = ("m", function, attribute, id(node), id(union))
    got = memo.get(key, _MISSING)
    if got is not _MISSING:
        return got
    values = union.values
    if not values:
        raise agg.EmptyAggregateError(f"{function} over an empty fragment")
    carrier, where = _extremum_meta(function, attribute, node, memo)
    pick = min if function == "min" else max
    if carrier == "here":
        if where is None:
            # Sorted union: the extremum is at an end.
            got = values[0] if function == "min" else values[-1]
        else:
            got = pick(value[where] for value in values)
    else:
        child = node.children[where]
        if _plain_leaf(child, memo):
            # Leaf carrier: sorted sub-unions expose extrema at an end
            # (the slow path keeps the EmptyAggregateError for ∅).
            got = pick(
                (sub.values[0] if function == "min" else sub.values[-1])
                if (type(sub) is CUnion and sub.values)
                else agg.extremum_union(function, attribute, child, sub)
                for sub in union.children[where]
            )
        else:
            got = pick(
                _memo_extremum(function, attribute, child, sub, memo)
                for sub in union.children[where]
            )
    memo[key] = got
    return got


def _memo_is_empty(node: FNode, union, memo: dict) -> bool:
    """Memoised twin of the structural emptiness check."""
    if type(union) is not CUnion:
        return agg.union_is_empty(node, union)
    values = union.values
    if not values:
        return True
    key = ("e", id(node), id(union))
    got = memo.get(key)
    if got is None:
        cols = union.children
        children = node.children
        component = (
            node.aggregate.count_component
            if node.aggregate is not None
            else None
        )
        span = range(len(cols))
        got = True
        for i, value in enumerate(values):  # repro: allow[kernel-scalar-loop] -- early exit on first live entry
            if component is not None and value[component] == 0:
                continue
            if any(_memo_is_empty(children[c], cols[c][i], memo) for c in span):
                continue
            got = False
            break
        memo[key] = got
    return got


def _carrier(
    nodes: Sequence[FNode], attribute: str, function: str, memo: dict
) -> int:
    """Which of ``nodes`` carries ``attribute`` — the subtree walk of
    ``_locate_nodes`` resolved once per node list, not per union."""
    key = ("lc", function, attribute, *map(id, nodes))
    got = memo.get(key)
    if got is None:
        got = memo[key] = agg._locate_nodes(nodes, attribute, function)
    return got


def _batch_components(
    functions: Sequence[tuple[str, str | None]],
    nodes: Sequence[FNode],
    cols: Sequence[Sequence[CUnion]],
    n: int,
    memo: dict | None = None,
) -> list[tuple]:
    """Component tuples for ``n`` contexts, one array pass per component.

    ``cols[c][i]`` is the fragment of aggregated child ``c`` in context
    ``i``.  Per-child count arrays are computed lazily once and shared
    (an AVG's count and sum reuse them), mirroring the shared-count rule
    of :func:`repro.core.aggregates.evaluate_components`.  ``memo``
    carries the shared-fragment cache across the parent entries of one
    operator application (see :func:`_memo_count`).
    """
    if memo is None:
        memo = {}
    count_cols: dict[int, list[int]] = {}

    def counts_for(c: int) -> list[int]:
        got = count_cols.get(c)
        if got is None:
            got = count_cols[c] = _count_col(nodes[c], cols[c], memo)
        return got

    total_counts: list[int] | None = None

    def counted() -> list[int]:
        nonlocal total_counts
        if total_counts is None:
            acc = [1] * n
            for c in range(len(nodes)):
                acc = [a * k for a, k in zip(acc, counts_for(c))]
            total_counts = acc
        return total_counts

    columns: list[list] = []
    for function, attribute in functions:
        if function == "count":
            columns.append(counted())
        elif function == "sum":
            carrier = _carrier(nodes, attribute, "sum", memo)
            if _plain_leaf(nodes[carrier], memo):
                acc = [
                    sum(sub.values)
                    if type(sub) is CUnion
                    else agg.sum_union(attribute, nodes[carrier], sub)
                    for sub in cols[carrier]
                ]
            else:
                acc = [
                    _memo_sum(attribute, nodes[carrier], sub, memo)
                    for sub in cols[carrier]
                ]
            for c in range(len(nodes)):
                if c != carrier:
                    acc = [a * k for a, k in zip(acc, counts_for(c))]
            columns.append(acc)
        elif function in ("min", "max"):
            carrier = _carrier(nodes, attribute, function, memo)
            if _plain_leaf(nodes[carrier], memo):
                columns.append(
                    [
                        (sub.values[0] if function == "min" else sub.values[-1])
                        if (type(sub) is CUnion and sub.values)
                        else agg.extremum_union(
                            function, attribute, nodes[carrier], sub
                        )
                        for sub in cols[carrier]
                    ]
                )
            else:
                columns.append(
                    [
                        _memo_extremum(
                            function, attribute, nodes[carrier], sub, memo
                        )
                        for sub in cols[carrier]
                    ]
                )
        else:
            raise agg.CompositionError(
                f"unknown aggregation function {function!r}"
            )
    if not columns:
        return [()] * n
    return list(zip(*columns))
