"""Batch kernels over whole f-tree levels.

Each f-plan operator in :mod:`repro.core.operators` is placed on its
f-tree once, naming one kernel factory of this module and its
arguments; every run builds the kernel from them and
:func:`repro.core.frep.map_cunion_level` hands it every union of the
target node at once — a *level* — the kernel concatenates the
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
from operator import sub
from typing import Any, Callable, Sequence

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
from repro.expr import Attr
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
def keep_matching(tests: Sequence[tuple[Callable, "bool | None"]]) -> LevelKernel:
    """σ_{Aθ₁C₁ ∧ Aθ₂C₂ …}: the entries of A's level whose value passes
    every test.

    Each test comes with which end of a sorted union its order
    comparison keeps (``None``: not an order comparison).  The
    conjunction is tested once per distinct value of the level — or,
    when every test is an order comparison, probed by bisection: the
    survivors of each union are one run, cut at both ends.
    """
    bounded = all(keeps is not None for _, keeps in tests)

    def passes(value) -> bool:
        return all(test(value) for test, _ in tests)

    def kernel(_: FNode, unions: list[CUnion]) -> Sequence[CUnion]:
        values = level_values(unions)
        probes = len(unions) * (len(values) // max(len(unions), 1)).bit_length()
        if not bounded or probes * len(tests) >= len(values):
            # First-seen order keeps the tests on neighbouring objects.
            verdict = {value: passes(value) for value in dict.fromkeys(values)}
            return splice_level(unions, live=[verdict[v] for v in values])
        # Fewer probes than values: find where each union's run starts
        # (the last suffix cut) and stops (the first prefix cut).
        sizes = [len(union.values) for union in unions]
        starts, stops = [0] * len(unions), sizes
        for test, keeps_suffix in tests:
            falls = test if keeps_suffix else (lambda value, test=test: not test(value))
            cuts = [bisect_left(union.values, True, key=falls) for union in unions]
            if keeps_suffix:
                starts = list(map(max, starts, cuts))
            else:
                stops = list(map(min, stops, cuts))
        stops = list(map(max, stops, starts))
        runs = chain.from_iterable(
            zip(starts, map(sub, stops, starts), map(sub, sizes, stops))
        )
        flags = cycle((False, True, False))
        live = list(chain.from_iterable(map(repeat, flags, runs)))
        return splice_level(unions, live=live)

    return kernel


def keep_bound(test: Callable, depths: Sequence[int]) -> LevelKernel:
    """σ over one root-to-leaf path: the entries of the level whose
    context passes ``test``, called with the values at ``depths`` of the
    entry's path (root first, its own last; see
    :func:`repro.core.frep.map_cunion_level` with ``contexts``)."""

    def kernel(_: FNode, unions: list[CUnion], contexts: list) -> Sequence[CUnion]:
        live = [bool(test([path[d] for d in depths])) for path in contexts]
        return splice_level(unions, live=live)

    return kernel


# ---------------------------------------------------------------------------
# projection: drop a leaf column
# ---------------------------------------------------------------------------
def drop_column(index: int) -> LevelKernel:
    """π: the level without its child column ``index`` (a leaf)."""

    def kernel(_: FNode, unions: list[CUnion]) -> Sequence[CUnion]:
        return splice_level(unions, drop=(index,))

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
    functions: Sequence[agg.Component],
    stats: "agg.ExpressionStats | None" = None,
    bound: Sequence[tuple[str, ...]] = (),
) -> Callable[..., tuple]:
    """The evaluator of one γ_F(U) application.

    The returned ``components(agg_cols, contexts=None)`` takes, per
    aggregated child, its fragment in every context (``agg_cols[c][i]``)
    and returns ``(live, values)``: which contexts hold tuples (``None``:
    all) and the component tuples of those that do.  Each child column
    is folded once per product of factors and shared between the
    components that need it, and fragments shared between contexts are
    folded once (one ``memo`` for the whole operator application).
    ``bound`` names the attributes every context fixes — those of the
    entries above it, root first, its own node's last — and
    ``contexts[i]`` holds their values; a component reading them is
    evaluated per context with them bound.
    """
    memo: dict = {}
    names = [(depth, name) for depth, attrs in enumerate(bound) for name in attrs]
    fixed = frozenset(name for _, name in names)

    def components(agg_cols: list, contexts: "list | None" = None) -> tuple:
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
            contexts = contexts and list(compress(contexts, live))
        bindings = contexts and [
            {name: values[depth] for depth, name in names} for values in contexts
        ]
        return live, _batch_components(
            functions, child_nodes, agg_cols, memo, stats, fixed, bindings
        )

    return components


def fold_columns(
    components: Callable[..., tuple], indices: Sequence[int], slot: int
) -> LevelKernel:
    """γ_F(U) over a level: columns ``indices`` fold into one aggregate
    leaf per context at column ``slot``; contexts without tuples go.
    Each context's path values (``contexts``, see
    :func:`repro.core.frep.map_cunion_level`) go to ``components``."""

    def kernel(
        _: FNode, unions: list[CUnion], contexts: "list | None" = None
    ) -> Sequence[CUnion]:
        live, found = components(
            [level_column(unions, i) for i in indices], contexts
        )
        leaves = map(CUnion, [[value] for value in found])
        if live is None:
            leaves = list(leaves)
        else:
            leaves = [next(leaves) if ok else None for ok in live]
        return splice_level(unions, indices, slot, (leaves,), live)

    return kernel


def _once(memo: dict, key: tuple, make: Callable[[], Any]) -> Any:
    """``make()``, evaluated once per ``key`` and operator application:
    what depends on the f-tree only, not on the fragments."""
    if key not in memo:
        memo[key] = make()
    return memo[key]


def _plain_leaf(node: FNode) -> bool:
    """Whether ``node`` is a childless atomic class.

    Leaf fragments dominate the recursion fan-out, so their evaluation
    is fused into the caller's comprehension instead of paying one
    Python call per leaf union.
    """
    return node.aggregate is None and not node.children


def _agg_leaf(child: FNode) -> tuple:
    """``(is_aggregate_leaf, count_component_or_None)``.

    Aggregate leaves are the γ-produced ``__agg`` nodes; fusing them in
    the column passes below skips one recursion level.  A leaf that
    retains no count component (pure Σ) still reports ``True`` — the
    callers decide whether that is fusable (emptiness) or must fall
    through to the strict path (counting raises, Prop. 2)."""
    if child.aggregate is None or child.children:
        return False, None
    return True, child.aggregate.count_component


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


def _live_col(node: FNode, col: Sequence[CUnion], memo: dict) -> list[bool]:
    """Per-entry non-emptiness of one child column (leaf cases fused)."""
    is_leaf, component = _agg_leaf(node)
    if is_leaf and component is not None:
        # Aggregate leaf: live iff some entry's count component is not 0.
        counts = _component_col(col, component, memo, any)
        return [True if count else False for count in counts]
    if is_leaf or _plain_leaf(node):
        # No multiplicities: any retained entry is live.
        return [True if sub.values else False for sub in col]
    return [not _memo_is_empty(node, sub, memo) for sub in col]


#: How a union folds the values of its entries (COUNT is a sum).
_FOLDS = {"sum": sum, "min": min, "max": max}


def _fold_col(
    function: str,
    factors: tuple,
    node: FNode,
    col: Sequence[CUnion],
    memo: dict,
    stats: "agg.ExpressionStats | None" = None,
) -> list:
    """⊕ Π ``factors`` over each fragment of a column, ⊕ being ``sum``,
    ``min`` or ``max``: the one recursion of Section 3.2, a level at a
    time.

    COUNT is the sum of the empty product, SUM(A) the sum of one factor
    and MIN/MAX(A) the extremum of one.  Factors that are this node's
    attribute lift its values (``price · price`` ↦ v·v; a sorted leaf's
    extremum is at an end), an aggregate node's stored partial of the
    same function stands for the factor it aggregated, and under a sum
    its count weighs in otherwise.  Each other factor recurses into the
    one child holding it; under a sum every other child contributes its
    count, while an extremum skips the children holding none of its
    factors (multiplicities do not move it).  Factors that need joint
    values flatten locally, one fragment at a time.
    """
    if not col:
        return []
    extremum = function != "sum"
    if extremum and not all([sub.values for sub in col]):
        raise agg.EmptyAggregateError(f"{function} over an empty fragment")
    if _plain_leaf(node) and (extremum or not factors):
        if not factors:
            return [len(sub.values) for sub in col]
        return [sub.values[0 if function == "min" else -1] for sub in col]
    power, lift, weight, below = _term_plan(function, factors, node, memo)
    if below is None:
        count = _counter(memo)
        return [
            agg.flatten(function, factors, [(node, sub)], count, stats) for sub in col
        ]
    fold = _FOLDS[function]
    if not node.children:
        if lift is not None or weight is not None:
            return _component_col(col, weight if lift is None else lift, memo, fold)
        if power == 1:
            return [fold(sub.values) for sub in col]
        return [fold(_powers(sub.values, power)) for sub in col]

    def entries(unions: Sequence[CUnion]) -> list:
        values = level_values(unions)
        acc = None  # an atomic node's entries have multiplicity 1
        if lift is not None:
            acc = [value[lift] for value in values]
        elif power:
            acc = _powers(values, power)
        for index, child in enumerate(node.children):
            if extremum and not below[index]:
                continue
            got = _fold_col(
                function, below[index], child, level_column(unions, index), memo, stats
            )
            acc = got if acc is None else [a * k for a, k in zip(acc, got)]
        if weight is not None:
            acc = [a * value[weight] for a, value in zip(acc, values)]
        return acc

    return _per_union(col, entries, fold)


def _powers(values: list, power: int) -> list:
    """Each value to ``power`` ≥ 1, as repeated products."""
    out = values
    for _ in range(power - 1):
        out = [a * v for a, v in zip(out, values)]
    return out


def _term_plan(function: str, factors: tuple, node: FNode, memo: dict) -> tuple:
    """:func:`repro.core.aggregates.split_term`, once per node."""
    key = ("tp", function, factors, id(node))
    return _once(memo, key, lambda: agg.split_term(function, factors, node))


def _counter(memo: dict) -> agg.Counter:
    """Counts of single fragments for the flattening enumerator."""
    return lambda node, union: _fold_col("sum", (), node, [union], memo)[0]


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


def _batch_components(
    functions: Sequence[agg.Component],
    nodes: Sequence[FNode],
    cols: Sequence[Sequence[CUnion]],
    memo: dict,
    stats: "agg.ExpressionStats | None" = None,
    fixed: frozenset = frozenset(),
    bindings: "list[dict] | None" = None,
) -> list[tuple]:
    """Component tuples of a level's contexts, one array pass per component.

    ``cols[c][i]`` is the fragment of aggregated child ``c`` in context
    ``i`` (of a whole level).  Every component is ⊕ Π of its factors
    (:func:`_fold_col`): a count or sum is the product over the
    children of the sums each child holds, each child's column folded
    once and shared, so an AVG's sum reuses its count's columns
    (Section 3.2.4); an extremum is that of the one child holding its
    attribute.  ``memo`` carries what one operator application resolves
    once: per-node term plans, component columns, emptiness of shared
    fragments.  What needs joint values — an extremum of an expression,
    a factor straddling children or reading an attribute in ``fixed`` —
    is flattened locally per context, with that context's ``bindings``.
    """
    folded: dict = {}
    count = _counter(memo)
    columns: list[list] = []
    for function, target in functions:
        if function not in ("count", "sum", "min", "max"):
            raise agg.CompositionError(f"unknown aggregation function {function!r}")
        fold = "sum" if function == "count" else function
        factors = (
            () if function == "count"
            else (Attr(target),) if isinstance(target, str)
            else target if function == "sum"
            else (target,)
        )
        held = None
        # An extremum of an expression is flattened whole, per context.
        whole = fold != "sum" and not isinstance(target, str)
        if not whole and not any(fixed.intersection(f.attributes()) for f in factors):
            held = _assignment(factors, nodes, memo)
        if held is None:
            columns.append([
                agg.flatten(
                    fold, factors, list(zip(nodes, subs)), count, stats,
                    bindings and bindings[i],
                )
                for i, subs in enumerate(zip(*cols))
            ])
            continue
        if factors and stats is not None and fold == "sum":
            stats.native_terms += 1
        acc = None
        for c, mine in enumerate(held):
            if fold != "sum" and not mine:
                continue
            got = folded.get((fold, c, mine))
            if got is None:
                got = folded[fold, c, mine] = _fold_col(
                    fold, mine, nodes[c], cols[c], memo, stats
                )
            acc = got if acc is None else [a * k for a, k in zip(acc, got)]
        columns.append(acc)
    return list(zip(*columns))


def _assignment(factors: tuple, nodes: Sequence[FNode], memo: dict):
    """:func:`repro.core.aggregates.assign_factors`, once per γ."""
    key = ("as", factors, *map(id, nodes))
    return _once(memo, key, lambda: agg.assign_factors(factors, nodes))
