"""Batch kernels over whole f-tree levels.

Each f-plan operator in :mod:`repro.core.operators` resolves its
position in the f-tree and applies one kernel from this module there:
:func:`repro.core.frep.map_cunion_level` hands the kernel every union of
the target node at once — a *level* — the kernel concatenates the
columns it needs (``level_values``/``level_column``), runs one
comprehension per column over the concatenation, and ``splice_level``
cuts the results back into unions.  The kernels keep the operators'
pruning and sortedness invariants (Section 4.1).

Operator wall time is recorded in the ``repro_kernel_seconds`` histogram
(one label per operator, see :func:`timed`) so the cost of each is
observable in server mode.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from functools import wraps
from itertools import accumulate, chain, compress, cycle, pairwise, repeat
from typing import Callable, Sequence

from repro.core import aggregates as agg
from repro.core.frep import (
    CUnion,
    cut_level,
    distinct_unions,
    level_bounds,
    level_column,
    level_values,
    splice_level,
)
from repro.core.ftree import FNode
from repro.expr import Expr
from repro.obs import clock
from repro.obs.metrics import metrics
from repro.obs.state import STATE

#: What :func:`repro.core.frep.map_cunion_level` applies: the target
#: node and every union at it, to one union each.
LevelKernel = Callable[[FNode, list[CUnion]], Sequence[CUnion]]

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
def pivot(
    j: int,
    rest_idx: Sequence[int],
    tb_idx: Sequence[int],
    tab_idx: Sequence[int],
    check: "Callable[[list, list], None] | None" = None,
) -> LevelKernel:
    """The χ_{A,B} kernel for A's level: regroup by B before A.

    ``j`` is B's column under A, ``rest_idx`` A's other columns,
    ``tb_idx``/``tab_idx`` B's columns that move up with B or stay
    below A (Section 4.2).  ``check`` is called with the T_B fragments
    of two pairs that share a B value (strict mode).
    """
    pure = not (rest_idx or tb_idx or tab_idx)

    def kernel(_: FNode, unions: list[CUnion]) -> list[CUnion]:
        # Flat position p is one (a, b) pair of the level, in input
        # order.  A pure two-level inversion (B a leaf and A's only
        # child) moves the a-values themselves; otherwise the pairs'
        # positions are moved and every output column is gathered
        # through them (``spread``: a per-a column, once per pair).
        b_unions = level_column(unions, j)
        fanout = [] if pure else [len(b_union.values) for b_union in b_unions]
        a_values = level_values(unions)
        # One ``b -> contributions`` table per union of the level.
        tables = [defaultdict(list) for _ in unions]
        table_of = chain.from_iterable(
            map(repeat, tables, [len(union.values) for union in unions])
        )
        firsts = a_values if pure else accumulate(fanout, initial=0)
        for table, b_union, first in zip(table_of, b_unions, firsts):
            if pure:
                for b_value in b_union.values:  # repro: allow[kernel-scalar-loop] -- the regrouping pivot: each (a, b) pair moves once
                    table[b_value].append(first)
            else:
                for p, b_value in enumerate(b_union.values, first):  # repro: allow[kernel-scalar-loop] -- see above
                    table[b_value].append(p)
        ordered = [sorted(table) for table in tables]
        # Ascending a within each b: pairs were met in a-order.
        members = [
            table[b_value]
            for table, found in zip(tables, ordered)
            for b_value in found
        ]
        if pure:
            under = list(map(CUnion, members))
        else:

            def spread(column: Sequence) -> list:
                return list(chain.from_iterable(map(repeat, column, fanout)))

            order = list(chain.from_iterable(members))
            under = cut_level(
                [0, *accumulate([len(found) for found in members])],
                *[
                    [col[p] for p in order]
                    for col in (
                        spread(a_values),
                        *[spread(level_column(unions, i)) for i in rest_idx],
                        *[level_column(b_unions, i) for i in tab_idx],
                    )
                ],
            )
        tb_flat = [level_column(b_unions, i) for i in tb_idx]
        if check is not None:
            for found in members:
                for p in found[1:]:
                    check(
                        [col[found[0]] for col in tb_flat],
                        [col[p] for col in tb_flat],
                    )
        return cut_level(
            [0, *accumulate([len(found) for found in ordered])],
            list(chain.from_iterable(ordered)),
            *[[col[found[0]] for found in members] for col in tb_flat],
            under,
        )

    return kernel


# ---------------------------------------------------------------------------
# merge (selection A=B on sibling nodes)
# ---------------------------------------------------------------------------
def intersect_cunions(left: CUnion, right: CUnion) -> CUnion:
    """Sorted intersection; matched entries concatenate child columns."""
    left_values = left.values
    right_values = right.values
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


def intersect_columns(ia: int, ib: int, slot: int) -> LevelKernel:
    """σ_{A=B} for sibling columns ``ia``/``ib``: the intersections take
    column ``slot`` of what remains."""

    def kernel(_: FNode, unions: list[CUnion]) -> Sequence[CUnion]:
        merged = [
            intersect_cunions(left, right)
            for left, right in zip(
                level_column(unions, ia), level_column(unions, ib)
            )
        ]
        # A context the selection empties is pruned.
        live = [True if union.values else False for union in merged]
        return splice_level(unions, (ia, ib), slot, (merged,), live)

    return kernel


# ---------------------------------------------------------------------------
# absorb (selection A=B when one node is the other's descendant)
# ---------------------------------------------------------------------------
def match_descendant(rel_steps: Sequence[int], desc_arity: int) -> LevelKernel:
    """σ_{A=B} with B ``rel_steps`` below A: bisect B's value arrays, a
    level at a time; B's ``desc_arity`` columns take B's place."""

    def matching(unions: list[CUnion], wanted: list, steps: Sequence[int]):
        """The level's entries whose descendant at ``steps`` holds the
        entry's ``wanted`` value."""
        step = steps[0]
        subs = level_column(unions, step)
        if len(steps) > 1:
            # Unlike the driver's levels these repeat shared fragments:
            # each occurrence is filtered by its own context's value.
            below = matching(
                subs,
                [w for w, sub in zip(wanted, subs) for _ in sub.values],
                steps[1:],
            )
            live = [True if union.values else False for union in below]
            return splice_level(unions, (step,), step, (below,), live)
        hits = [bisect_left(sub.values, w) for sub, w in zip(subs, wanted)]
        live = [
            hit < len(sub.values) and sub.values[hit] == w
            for sub, w, hit in zip(subs, wanted, hits)
        ]
        matched = [
            [
                sub.children[c][hit] if ok else None
                for sub, hit, ok in zip(subs, hits, live)
            ]
            for c in range(desc_arity)
        ]
        return splice_level(unions, (step,), step, matched, live)

    def kernel(_: FNode, unions: list[CUnion]) -> Sequence[CUnion]:
        return matching(unions, level_values(unions), rel_steps)

    return kernel


# ---------------------------------------------------------------------------
# constant selection
# ---------------------------------------------------------------------------
def keep_matching(test: Callable, keeps_suffix: "bool | None") -> LevelKernel:
    """σ_{AθC}: the entries of A's level whose value passes ``test``.

    The condition is tested once per distinct value of the level — or,
    when ``keeps_suffix`` says which end of a sorted union an order
    comparison keeps (``None``: not an order comparison), probed by
    bisection: the survivors of each union are a prefix or a suffix.
    """

    def kernel(_: FNode, unions: list[CUnion]) -> Sequence[CUnion]:
        values = level_values(unions)
        probes = len(unions) * (len(values) // max(len(unions), 1)).bit_length()
        if keeps_suffix is None or probes >= len(values):
            # First-seen order keeps the tests on neighbouring objects.
            verdict = {
                value: bool(test(value)) for value in dict.fromkeys(values)
            }
            return splice_level(unions, live=[verdict[v] for v in values])
        # Fewer probes than values: find where each union's run ends.
        falls = test if keeps_suffix else (lambda value: not test(value))
        cuts = [bisect_left(union.values, True, key=falls) for union in unions]
        rests = [len(union.values) - cut for union, cut in zip(unions, cuts)]
        runs = chain.from_iterable(zip(cuts, rests))
        flags = cycle((not keeps_suffix, keeps_suffix))
        live = list(chain.from_iterable(map(repeat, flags, runs)))
        return splice_level(unions, live=live)

    return kernel


# ---------------------------------------------------------------------------
# nesting independent fragments (group-path linearisation)
# ---------------------------------------------------------------------------
def nest_column(s_idx: int, t_idx: int) -> LevelKernel:
    """Move column ``s_idx`` below its sibling column ``t_idx``: each
    moved fragment is shared (by reference) under every value of the
    target union beside it."""

    def kernel(_: FNode, unions: list[CUnion]) -> Sequence[CUnion]:
        nested = [
            CUnion(
                below.values,
                below.children + ([moved] * len(below.values),),
            )
            for below, moved in zip(
                level_column(unions, t_idx), level_column(unions, s_idx)
            )
        ]
        # The target keeps its place among the columns that stay.
        slot = t_idx - 1 if s_idx < t_idx else t_idx
        return splice_level(unions, (s_idx, t_idx), slot, (nested,))

    return kernel


def hang_below(moved: CUnion) -> LevelKernel:
    """Share the context-free fragment ``moved`` as a new last column
    under every value of the level."""

    def kernel(_: FNode, unions: list[CUnion]) -> list[CUnion]:
        return [
            CUnion(
                union.values,
                union.children + ([moved] * len(union.values),),
            )
            for union in unions
        ]

    return kernel


# ---------------------------------------------------------------------------
# the γ aggregation operator (Section 3)
# ---------------------------------------------------------------------------
def context_components(
    child_nodes: Sequence[FNode],
    functions: Sequence[tuple[str, "str | Expr | None"]],
) -> Callable[[list], tuple]:
    """The evaluator of one γ_F(U) application.

    The returned ``components(agg_cols)`` takes, per aggregated child,
    its fragment in every context (``agg_cols[c][i]``) and returns
    ``(live, values)``: which contexts hold tuples (``None``: all) and
    the component tuples of those that do.  The carrier of each
    component is located once, the per-child count arrays are computed
    once over the concatenated columns and shared between the count and
    sum components, and fragments shared between contexts are folded
    once (one ``memo`` for the whole operator application).
    """
    scalar_fallback = any(
        isinstance(attribute, Expr) for _, attribute in functions
    )
    memo: dict = {}

    def components(agg_cols: list) -> tuple:
        # Emptiness mask first: dropped contexts must never be evaluated
        # (extrema over ∅ raise; SQL drops empty groups).
        live = None
        for node, col in zip(child_nodes, agg_cols):
            mask = _live_col(node, col, memo)
            live = mask if live is None else [a and b for a, b in zip(live, mask)]
        if all(live):
            live = None
        else:
            agg_cols = [list(compress(col, live)) for col in agg_cols]
        if scalar_fallback:
            return live, [
                agg.evaluate_components(functions, list(zip(child_nodes, subs)))
                for subs in zip(*agg_cols)  # repro: allow[kernel-scalar-loop] -- expression aggregates stay per-entry
            ]
        return live, _batch_components(
            functions, child_nodes, agg_cols, len(agg_cols[0]), memo
        )

    return components


def fold_columns(
    components: Callable[[list], tuple], indices: Sequence[int], slot: int
) -> LevelKernel:
    """γ_F(U) over a level: columns ``indices`` fold into one aggregate
    leaf per context at column ``slot``; contexts without tuples go."""

    def kernel(_: FNode, unions: list[CUnion]) -> Sequence[CUnion]:
        live, found = components([level_column(unions, i) for i in indices])
        leaves = map(CUnion, [[value] for value in found])
        if live is None:
            leaves = list(leaves)
        else:
            leaves = [next(leaves) if ok else None for ok in live]
        return splice_level(unions, indices, slot, (leaves,), live)

    return kernel


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


def _component_col(
    col: Sequence[CUnion], component: int, memo: dict, fold=sum
) -> list:
    """``fold`` of one stored component over each union of an
    aggregate-leaf column.  γ leaves hold one value each, and then this
    is one pass over the column's concatenated values — whatever the
    fold, so the emptiness mask and the counts of a step share it
    (``memo`` keeps the column alive with its result)."""
    key = ("col", id(col), component)
    got = memo.get(key)
    if got is None:
        values = level_values(col)
        if len(values) != len(col) or not all([sub.values for sub in col]):
            return [fold([value[component] for value in sub.values]) for sub in col]
        got = memo[key] = col, [value[component] for value in values]
    return got[1]


def _per_union(col: Sequence[CUnion], entries_of, fold) -> list:
    """``fold`` of each union's slice of a per-entry array.

    ``entries_of(unions)`` evaluates the column's unions as one level
    (one value per entry, in level order).  Restructuring operators
    (swap, nest) share fragments instead of copying them, so the same
    union object recurs in a column: it is one union of the level and
    is evaluated once.
    """
    unions, back = distinct_unions(col)
    per_entry = entries_of(unions)
    out = [fold(per_entry[a:b]) for a, b in pairwise(level_bounds(unions))]
    return out if back is None else [out[i] for i in back]


def _count_col(node: FNode, col: Sequence[CUnion], memo: dict) -> list:
    """Tuples each fragment of a column represents — the twin of
    :func:`repro.core.aggregates.count_union`, a level at a time."""
    if not col:
        return []
    if _plain_leaf(node, memo):
        return [len(sub.values) for sub in col]
    is_leaf, component = _agg_leaf(node, memo)
    if is_leaf and component is not None:
        # Aggregate leaf: the count is the fold of count components.
        return _component_col(col, component, memo)

    def entries(unions: Sequence[CUnion]) -> list:
        acc = None  # an atomic node's entries have multiplicity 1
        if node.aggregate is not None:
            component = agg._count_component(node)
            acc = [value[component] for value in level_values(unions)]
        for index, child in enumerate(node.children):
            counts = _count_col(child, level_column(unions, index), memo)
            acc = counts if acc is None else [a * k for a, k in zip(acc, counts)]
        return acc

    return _per_union(col, entries, sum)


def _live_col(node: FNode, col: Sequence[CUnion], memo: dict) -> list[bool]:
    """Per-entry non-emptiness of one child column (leaf cases fused)."""
    is_leaf, component = _agg_leaf(node, memo)
    if is_leaf and component is not None:
        # Aggregate leaf: live iff some entry's count component is not 0.
        counts = _component_col(col, component, memo, any)
        return [True if count else False for count in counts]
    if is_leaf or _plain_leaf(node, memo):
        # No multiplicities: any retained entry is live.
        return [True if sub.values else False for sub in col]
    return [not _memo_is_empty(node, sub, memo) for sub in col]


def _carrier_meta(
    function: str, attribute: str, node: FNode, memo: dict
) -> tuple:
    """Carrier decision for ``function(attribute)`` at ``node`` — the
    subtree walk of ``_carries``/``_locate_nodes`` resolved once per
    node, not per fragment visit: ``("here", stored component or None)``
    or ``("below", index of the carrying child)``."""
    key = ("cm", function, attribute, id(node))
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


def _sum_col(
    attribute: str, node: FNode, col: Sequence[CUnion], memo: dict
) -> list:
    """Σ ``attribute`` of each fragment of a column — the twin of
    :func:`repro.core.aggregates.sum_union`, a level at a time."""
    if not col:
        return []
    if _plain_leaf(node, memo):
        return [sum(sub.values) for sub in col]
    carrier, where = _carrier_meta("sum", attribute, node, memo)
    if _agg_leaf(node, memo)[0]:
        return _component_col(col, where, memo)

    def entries(unions: Sequence[CUnion]) -> list:
        values = level_values(unions)
        if carrier == "here":
            acc = values if where is None else [value[where] for value in values]
        else:
            acc = _sum_col(
                attribute, node.children[where], level_column(unions, where), memo
            )
        for index, child in enumerate(node.children):
            if carrier == "here" or index != where:
                counts = _count_col(child, level_column(unions, index), memo)
                acc = [a * k for a, k in zip(acc, counts)]
        if carrier == "below" and node.aggregate is not None:
            component = agg._count_component(node)
            acc = [a * value[component] for a, value in zip(acc, values)]
        return acc

    return _per_union(col, entries, sum)


def _extremum_col(
    function: str, attribute: str, node: FNode, col: Sequence[CUnion], memo: dict
) -> list:
    """min/max ``attribute`` of each fragment of a column — the twin of
    :func:`repro.core.aggregates.extremum_union`, a level at a time."""
    if not col:
        return []
    if not all([sub.values for sub in col]):
        raise agg.EmptyAggregateError(f"{function} over an empty fragment")
    if _plain_leaf(node, memo):
        # Sorted union: the extremum is at an end.
        end = 0 if function == "min" else -1
        return [sub.values[end] for sub in col]
    pick = min if function == "min" else max
    carrier, where = _carrier_meta(function, attribute, node, memo)
    if _agg_leaf(node, memo)[0]:
        return _component_col(col, where, memo, pick)

    def entries(unions: Sequence[CUnion]) -> list:
        if carrier == "below":
            return _extremum_col(
                function, attribute, node.children[where],
                level_column(unions, where), memo,
            )
        values = level_values(unions)
        return values if where is None else [value[where] for value in values]

    return _per_union(col, entries, pick)


def _memo_is_empty(node: FNode, union: CUnion, memo: dict) -> bool:
    """Memoised twin of the structural emptiness check."""
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
    ``_locate_nodes`` resolved once per node list, not per level."""
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
    memo: dict,
) -> list[tuple]:
    """Component tuples for ``n`` contexts, one array pass per component.

    ``cols[c][i]`` is the fragment of aggregated child ``c`` in context
    ``i`` (of a whole level).  Per-child count arrays are computed
    lazily once and shared (an AVG's count and sum reuse them),
    mirroring the shared-count rule of
    :func:`repro.core.aggregates.evaluate_components`.  ``memo``
    carries what one operator application resolves once: per-node
    carrier decisions, component columns, emptiness of shared fragments.
    """
    count_cols: dict[int, list[int]] = {}

    def counts_for(c: int) -> list[int]:
        got = count_cols.get(c)
        if got is None:
            got = count_cols[c] = _count_col(nodes[c], cols[c], memo)
        return got

    columns: list[list] = []
    for function, attribute in functions:
        if function == "count":
            acc, carrier = [1] * n, None
        elif function == "sum":
            carrier = _carrier(nodes, attribute, "sum", memo)
            acc = _sum_col(attribute, nodes[carrier], cols[carrier], memo)
        elif function in ("min", "max"):
            carrier = _carrier(nodes, attribute, function, memo)
            columns.append(
                _extremum_col(
                    function, attribute, nodes[carrier], cols[carrier], memo
                )
            )
            continue
        else:
            raise agg.CompositionError(
                f"unknown aggregation function {function!r}"
            )
        for c in range(len(nodes)):
            if c != carrier:
                acc = [a * k for a, k in zip(acc, counts_for(c))]
        columns.append(acc)
    if not columns:
        return [()] * n
    return list(zip(*columns))
