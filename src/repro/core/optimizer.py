"""Query optimisation over f-plans (Section 5).

The search space is one graph: its nodes are f-trees and its edges the
permissible operators (Proposition 3).  Three strategies walk it, all
subsuming the select-project-join techniques of earlier work [5]:

- :class:`GreedyOptimizer` — the polynomial-time heuristic of Section
  5.2, step for step: (1) apply permissible selections (preferring
  highest-placed nodes), (2) apply permissible aggregation operators
  with maximal subtrees, (3) resolve remaining selections by pushing
  one side, the other, or both — whichever the size-bound metric says
  is cheapest, (4) push group-by attributes above all others, (5) make
  the order-by list compatible with the tree (Theorem 2), (6) stop.

- :class:`ExhaustiveOptimizer` — Dijkstra over the graph (Section
  5.1), every edge priced by :func:`tree_pricer`: the size bound of the
  operator's output f-tree.  Exponential in general; bounded by a
  state cap past which it returns the greedy plan, marked with
  :attr:`FPlan.fallback` and counted in ``repro_fallback_total``.

- :class:`CostBasedOptimizer` — the same search.  It differs only in
  its input: the engine attaches statistics to the planning context,
  and :func:`tree_pricer` then prices by estimated factorisation size.

The greedy plan and the search share their candidate steps
(:func:`_selection_step`, :func:`_gamma_options`).  All produce
:class:`repro.core.fplan.FPlan` objects; the engine runs the plan and
handles output shaping (enumeration or finalisation).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.core import aggregates as agg
from repro.core.cost import (
    Hypergraph,
    estimated_tree_size,
    ftree_cost,
    s_parameter,
)
from repro.core.fplan import (
    AbsorbStep,
    AggregateStep,
    FPlan,
    MergeStep,
    Step,
    SwapStep,
)
from repro.core.ftree import FNode, FTree, fresh_aggregate_name
from repro.obs.metrics import metrics
from repro.query import Equality
from repro.relational.sort import SortKey, normalise_order


class OptimizerError(ValueError):
    """Raised when no valid f-plan can be constructed."""


@dataclass
class PlanContext:
    """Everything the optimiser needs to know about the query.

    ``kept`` is the set of attributes that must survive aggregation: the
    group-by attributes for aggregate queries, or the projection/order
    attributes for select-project-join queries.  ``functions`` lists the
    query's aggregation function components ((fn, attr) pairs, with avg
    already expanded to sum+count); empty for non-aggregate queries.

    Expression aggregates add two γ-placement constraints: ``coupled``
    groups of attributes co-occur multiplicatively in one term, so a γ
    may absorb at most one attribute per group (separate partial sums
    cannot recover Σ a·b when a and b are dependent); ``protected``
    attributes must stay atomic entirely (min/max expression arguments
    and opaque factors), leaving their evaluation to the engine's final
    expression pass.

    ``stats`` optionally maps input names to :class:`repro.stats`
    relation records (duck-typed: ``rows`` plus per-attribute
    ``distinct`` counts); when present, :func:`tree_pricer` prices
    candidate trees by estimated factorisation size instead of the
    asymptotic ``scale``-based bound.
    """

    hypergraph: Hypergraph
    equalities: tuple[Equality, ...] = ()
    kept: frozenset[str] = frozenset()
    functions: tuple[tuple[str, str | None], ...] = ()
    order: tuple[SortKey, ...] = ()
    scale: float = 1024.0
    coupled: tuple[frozenset[str], ...] = ()
    protected: frozenset[str] = frozenset()
    stats: "Mapping[str, Any] | None" = None

    def __post_init__(self) -> None:
        self.order = tuple(normalise_order(self.order))


MAX_GREEDY_ITERATIONS = 10_000

_FALLBACKS = metrics().counter(
    "repro_fallback_total",
    "Degraded paths taken in place of the requested one, by layer and reason.",
    ("layer", "reason"),
)
_STATE_CAP_FALLBACK = _FALLBACKS.labels("optimizer", "state_cap")


def tree_pricer(ctx: PlanContext) -> Callable[..., float]:
    """The price of an f-tree under ``ctx``: ``price(tree, signature=None)``.

    With statistics it is the estimated singleton count
    (:func:`repro.core.cost.estimated_tree_size`), memoised per path
    attribute set and, given a state ``signature``, per state across
    the many candidate trees of one search, which mostly differ in a
    few nodes.  Without statistics it is the asymptotic size bound
    (:func:`repro.core.cost.ftree_cost`).
    """
    if not ctx.stats:
        return lambda tree, signature=None: ftree_cost(
            tree, ctx.hypergraph, ctx.scale
        )
    node_memo: dict = {}
    sizes: dict = {}

    def price(tree: FTree, signature=None) -> float:
        size = sizes.get(signature)
        if size is None:
            size = estimated_tree_size(
                tree, ctx.hypergraph, ctx.stats, ctx.scale, node_memo
            )
            if signature is not None:
                sizes[signature] = size
        return size

    return price


class GreedyOptimizer:
    """The polynomial-time greedy heuristic of Section 5.2."""

    def plan(self, ftree: FTree, ctx: PlanContext) -> FPlan:
        steps: list[Step] = []
        tree = ftree
        pending = [
            eq for eq in ctx.equalities if not _same_node(tree, eq)
        ]
        for _ in range(MAX_GREEDY_ITERATIONS):
            # (1) permissible selection operators, highest placed first.
            selection = _permissible_selection(tree, pending)
            if selection is not None:
                step, equality = selection
                steps.append(step)
                tree = step.place(tree).tree
                pending.remove(equality)
                pending = [eq for eq in pending if not _same_node(tree, eq)]
                continue
            # (2) permissible aggregation operators, maximal subtree.
            gamma = _best_aggregation(tree, ctx, pending) if ctx.functions else None
            if gamma is not None:
                more = [gamma]
            # (3) restructure for a remaining selection, cheapest push.
            elif pending:
                more = _cheapest_push(tree, pending[0], ctx)
            else:
                # (4) push group-by attributes above non-group attributes,
                # then (5) establish the Theorem 2 order condition.
                swap = _grouping_swap(tree, ctx) or _order_swap(tree, ctx)
                if swap is None:
                    return FPlan(steps)  # (6) done.
                more = [swap]
            steps.extend(more)
            for step in more:
                tree = step.place(tree).tree
        raise OptimizerError("greedy optimiser did not converge")


# ---------------------------------------------------------------------------
# Step helpers shared by both optimisers
# ---------------------------------------------------------------------------
def _same_node(tree: FTree, equality: Equality) -> bool:
    return (
        equality.left in tree
        and equality.right in tree
        and tree.node(equality.left) is tree.node(equality.right)
    )


def _selection_step(tree: FTree, equality: Equality) -> Step | None:
    """The merge (siblings) or absorb (one path) that applies
    ``equality`` to ``tree``; ``None`` when its nodes are neither."""
    node_a = tree.node(equality.left)
    node_b = tree.node(equality.right)
    if tree.parent(node_a) is tree.parent(node_b) and node_a is not node_b:
        return MergeStep(node_a.name, node_b.name)
    if tree.is_ancestor(node_a, node_b):
        return AbsorbStep(node_a.name, node_b.name)
    if tree.is_ancestor(node_b, node_a):
        return AbsorbStep(node_b.name, node_a.name)
    return None


def _permissible_selection(
    tree: FTree, pending: Sequence[Equality]
) -> tuple[Step, Equality] | None:
    """The applicable merge/absorb involving the highest-placed node."""
    best: tuple[int, Step, Equality] | None = None
    for equality in pending:
        step = _selection_step(tree, equality)
        if step is None:
            continue
        height = min(
            tree.depth(tree.node(equality.left)),
            tree.depth(tree.node(equality.right)),
        )
        if best is None or height < best[0]:
            best = (height, step, equality)
    if best is None:
        return None
    return best[1], best[2]


def _blocked_attributes(pending: Sequence[Equality]) -> set[str]:
    blocked: set[str] = set()
    for equality in pending:
        blocked.add(equality.left)
        blocked.add(equality.right)
    return blocked


def _eligible_children(
    tree: FTree,
    parent: FNode | None,
    ctx: PlanContext,
    pending: Sequence[Equality],
) -> list[FNode]:
    """Children of ``parent`` whose whole subtree may be aggregated away."""
    blocked = _blocked_attributes(pending)
    children = tree.roots if parent is None else parent.children
    eligible = []
    # Coupled attributes already folded on the path above ``parent``
    # count against the group budget too: folding qty beneath a node
    # that carries sum(price) partials nests the two aggregations on
    # one root-to-leaf path, and the final expression pass cannot
    # recover Σ price·qty from partials taken at different levels.
    combined_covered: set[str] = set()
    node = parent
    while node is not None:
        if node.aggregate is not None:
            combined_covered |= set(node.aggregate.over)
        node = tree.parent(node)
    for child in children:
        names = child.subtree_names()
        if names & ctx.kept or names & blocked:
            continue
        # Expression constraints apply to the *covered* attribute set
        # (including attributes already folded into inner aggregates):
        # once two coupled attributes share one γ, their joint products
        # are unrecoverable.  The constraint binds the whole step — the
        # selected children are aggregated into one node — so coupled
        # attributes in sibling subtrees must go to separate γs.
        covered = _aggregated_attributes(child)
        if covered & ctx.protected:
            continue
        joint = combined_covered | covered
        if any(len(group & joint) >= 2 for group in ctx.coupled):
            continue
        if not _composable_subtree(child, ctx):
            continue
        eligible.append(child)
        combined_covered = joint
    return eligible


def _composable_subtree(subtree: FNode, ctx: PlanContext) -> bool:
    """Every inner aggregate must compose with the needed partials."""
    attrs = _aggregated_attributes(subtree)
    needed = agg.partial_functions_for(ctx.functions, attrs)
    if not needed:
        needed = (("count", None),)
    for node in subtree.walk():
        if node.aggregate is None:
            continue
        for component in needed:
            if component[1] is not None and component[1] not in node.aggregate.over:
                # The inner aggregate does not cover this attribute at
                # all; composition is unconstrained by it.
                continue
            if not agg.composable(component, node.aggregate):
                return False
    return True


def _aggregated_attributes(subtree: FNode) -> set[str]:
    attrs = set(subtree.subtree_atomic_attributes())
    for node in subtree.walk():
        if node.aggregate is not None:
            attrs |= set(node.aggregate.over)
    return attrs


def _makes_progress(children: Sequence[FNode]) -> bool:
    """γ must shrink something: an atomic node, or ≥2 subtrees combined."""
    if len(children) >= 2:
        return True
    return any(node.aggregate is None for node in children[0].walk())


def _gamma_step(
    tree: FTree, parent: FNode | None, children: Sequence[FNode], ctx: PlanContext
) -> AggregateStep:
    attrs: set[str] = set()
    for child in children:
        attrs |= _aggregated_attributes(child)
    functions = agg.partial_functions_for(ctx.functions, attrs)
    if not functions:
        # Pure-extremum queries aggregate attribute-free subtrees with a
        # count partial, which the final extremum then ignores.
        functions = (("count", None),)
    return AggregateStep(
        parent.name if parent is not None else None,
        tuple(child.name for child in children),
        functions,
        fresh_aggregate_name(),
    )


def _gamma_options(
    tree: FTree, ctx: PlanContext, pending: Sequence[Equality]
) -> Iterator[tuple[FNode | None, list[FNode]]]:
    """Per parent (``None``: the roots), every child one γ may aggregate
    away, wherever aggregating them all makes progress."""
    for parent in [None, *tree.nodes()]:
        children = _eligible_children(tree, parent, ctx, pending)
        if children and _makes_progress(children):
            yield parent, children


def _best_aggregation(
    tree: FTree, ctx: PlanContext, pending: Sequence[Equality]
) -> AggregateStep | None:
    """The permissible γ with the largest subtree union (the first of
    equal ones), if any."""
    options = list(_gamma_options(tree, ctx, pending))
    if not options:
        return None
    parent, children = max(
        options, key=lambda option: sum(len(list(c.walk())) for c in option[1])
    )
    return _gamma_step(tree, parent, children, ctx)


def _push_up_steps(tree: FTree, name: str, stop) -> tuple[list[Step], FTree]:
    """Swap ``name`` upward until ``stop(tree)`` holds or it is a root."""
    steps: list[Step] = []
    current = tree
    while not stop(current):
        node = current.node(name)
        if current.parent(node) is None:
            break
        step = SwapStep(node.name)
        steps.append(step)
        current = step.place(current).tree
    return steps, current


def _cheapest_push(
    tree: FTree, equality: Equality, ctx: PlanContext
) -> list[Step]:
    """Option (a)/(b)/(c) of step 3, ranked by summed size bounds."""

    def mergeable(candidate: FTree) -> bool:
        return (
            _same_node(candidate, equality)
            or _selection_step(candidate, equality) is not None
        )

    options: list[tuple[float, list[Step]]] = []
    for mode in ("left", "right", "both"):
        steps: list[Step] = []
        current = tree
        if mode in ("left", "both"):
            more, current = _push_up_steps(current, equality.left, mergeable)
            steps.extend(more)
        if mode in ("right", "both") and not mergeable(current):
            more, current = _push_up_steps(current, equality.right, mergeable)
            steps.extend(more)
        if not mergeable(current) or not steps:
            continue
        cost = sum(
            ftree_cost(placement.tree, ctx.hypergraph, ctx.scale)
            for placement in FPlan(steps).place(tree)
        )
        options.append((cost, steps))
    if not options:
        raise OptimizerError(
            f"cannot restructure for selection {equality}: no push applies"
        )
    options.sort(key=lambda pair: pair[0])
    return options[0][1]


def _grouping_swap(tree: FTree, ctx: PlanContext) -> SwapStep | None:
    """Step 4: some kept attribute whose parent holds no kept attribute."""
    if not ctx.functions:
        return None
    for name in sorted(ctx.kept):
        if name not in tree:
            continue
        node = tree.node(name)
        parent = tree.parent(node)
        if parent is None:
            continue
        if not (set(parent.all_names) & ctx.kept):
            return SwapStep(node.name)
    return None


def _order_swap(tree: FTree, ctx: PlanContext) -> SwapStep | None:
    """Step 5: first order attribute violating the Theorem 2 condition."""
    seen: set[str] = set()
    for key in ctx.order:
        if key.attribute not in tree:
            continue  # alias of the final aggregate; engine handles it
        node = tree.node(key.attribute)
        parent = tree.parent(node)
        if parent is not None and not (set(parent.all_names) & seen):
            return SwapStep(node.name)
        seen.update(node.all_names)
    return None


# ---------------------------------------------------------------------------
# The search (Section 5.1)
# ---------------------------------------------------------------------------
class ExhaustiveOptimizer:
    """Dijkstra in the graph of f-trees connected by permissible operators.

    Finds the minimum-cost f-plan, each edge priced by
    :func:`tree_pricer`: the size bound of its output tree, or its
    estimated size when ``ctx.stats`` is set.  With statistics over more
    than one input, the fractional edge cover bound also prunes: a
    candidate whose s-parameter exceeds the worst s-parameter along the
    greedy plan cannot win asymptotically and is discarded.  Past the
    state cap it returns the greedy plan, with the reason in
    :attr:`FPlan.fallback`.
    """

    def __init__(self, max_states: int = 4000) -> None:
        self.max_states = max_states

    def plan(self, ftree: FTree, ctx: PlanContext) -> FPlan:
        price = tree_pricer(ctx)
        # Over a single input every path is covered by its one
        # hyperedge (s ≡ 1): the bound can prune nothing there.
        prune = bool(ctx.stats) and len(ctx.hypergraph.edges) > 1
        greedy = budget = None
        if prune:
            greedy = GreedyOptimizer().plan(ftree, ctx)
            trees = [ftree, *(placement.tree for placement in greedy.place(ftree))]
            budget = max(s_parameter(tree, ctx.hypergraph) for tree in trees)
        # Candidate trees share the subtrees a step left alone, so the
        # memos (keyed by node, or by state) compute each part once.
        sig_memo: dict = {}
        s_memo: dict = {}
        start_pending = tuple(
            eq for eq in ctx.equalities if not _same_node(ftree, eq)
        )
        heap: list[
            tuple[float, int, FTree, tuple[Equality, ...], tuple[Step, ...]]
        ] = [(0.0, 0, ftree, start_pending, ())]
        seen: set = {(_signature(ftree, sig_memo), start_pending)}
        counter = expanded = 0
        while heap:
            cost, _, tree, pending, steps = heapq.heappop(heap)
            if self._is_goal(tree, pending, ctx):
                return FPlan(steps)
            expanded += 1
            if expanded > self.max_states:
                break
            for step, new_pending in self._edges(tree, pending, ctx):
                new_tree = step.place(tree).tree
                signature = _signature(new_tree, sig_memo)
                state = (signature, new_pending)
                if state in seen:
                    continue
                if prune:
                    if signature not in s_memo:
                        s_memo[signature] = s_parameter(new_tree, ctx.hypergraph)
                    if s_memo[signature] > budget + 1e-9:
                        continue
                seen.add(state)
                counter += 1
                edge = price(new_tree, signature)
                heapq.heappush(
                    heap, (cost + edge, counter, new_tree, new_pending, steps + (step,))
                )
        fallback = greedy if greedy is not None else GreedyOptimizer().plan(ftree, ctx)
        fallback.fallback = f"state cap {self.max_states} → greedy plan"
        _STATE_CAP_FALLBACK.inc()
        return fallback

    def _is_goal(
        self, tree: FTree, pending: tuple[Equality, ...], ctx: PlanContext
    ) -> bool:
        if pending:
            return False
        from repro.core.enumerate import supports_grouping, supports_order

        if ctx.functions:
            # Attributes an expression aggregate needs atomic can (and
            # must) survive to the final evaluation pass.
            allowed = set(ctx.protected)
            for group in ctx.coupled:
                allowed |= group
            non_kept_atomic = {
                name
                for node in tree.nodes()
                if node.aggregate is None
                for name in node.attributes
                if name not in ctx.kept and name not in allowed
            }
            if non_kept_atomic:
                return False
            kept_present = [k for k in ctx.kept if k in tree]
            if not supports_grouping(tree, kept_present):
                return False
        if ctx.order:
            keys = [k for k in ctx.order if k.attribute in tree]
            if not supports_order(tree, keys):
                return False
        return True

    def _edges(
        self, tree: FTree, pending: tuple[Equality, ...], ctx: PlanContext
    ) -> Iterator[tuple[Step, tuple[Equality, ...]]]:
        # Selections (merge/absorb) for every applicable pending equality.
        for equality in pending:
            step = _selection_step(tree, equality)
            if step is not None:
                yield step, tuple(eq for eq in pending if eq is not equality)
        # Aggregations: maximal per parent plus each single subtree.
        if ctx.functions:
            for parent, children in _gamma_options(tree, ctx, pending):
                yield _gamma_step(tree, parent, children, ctx), pending
                if len(children) > 1:
                    for child in children:
                        if _makes_progress([child]):
                            yield _gamma_step(tree, parent, [child], ctx), pending
        # Swaps: any non-root node can be promoted.
        for node in tree.nodes():
            if tree.parent(node) is not None:
                yield SwapStep(node.name), pending


class CostBasedOptimizer(ExhaustiveOptimizer):
    """Dijkstra over f-trees priced by *estimated* factorisation size.

    Same search graph as :class:`ExhaustiveOptimizer` (Proposition 3's
    permissible-operator edges), but an edge costs the estimated
    singleton count of its output tree computed from live statistics
    (``ctx.stats``): real cardinalities and distinct counts, combined
    through the AGM/distinct-product bounds of
    :func:`repro.core.cost.estimated_tree_size`.  The fractional edge
    cover bound is retained as an admissible pruning heuristic — a
    candidate whose s-parameter exceeds the worst s-parameter along the
    greedy plan cannot win asymptotically and is discarded, keeping the
    memoised search bounded.

    Without statistics the search delegates to the exhaustive strategy;
    past the state cap it falls back to the greedy plan.
    """


def _signature(tree: FTree, memo: dict):
    """Structural state signature (order-insensitive among siblings).

    Candidate trees of one search share the subtrees a step left alone
    (the same node objects), so ``memo`` — node → signature, kept for
    the search — computes each subtree's signature once.
    """
    return tuple(sorted(_node_signature(root, memo) for root in tree.roots))


def _node_signature(node: FNode, memo: dict):
    got = memo.get(node)
    if got is None:
        # Aggregate names are freshly minted per step, so the signature
        # identifies aggregates by content (functions + source attrs) to
        # let Dijkstra recognise equivalent states.
        label = (
            (
                "agg",
                node.aggregate.functions,
                tuple(sorted(map(str, node.aggregate.over))),
            )
            if node.aggregate is not None
            else ("atom", tuple(sorted(node.attributes)))
        )
        got = memo[node] = (
            label,
            tuple(sorted(_node_signature(child, memo) for child in node.children)),
        )
    return got
