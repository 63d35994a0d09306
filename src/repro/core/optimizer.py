"""Query optimisation over f-plans (Section 5).

Two strategies are provided, both subsuming the select-project-join
techniques of earlier work [5]:

- :class:`GreedyOptimizer` — the polynomial-time heuristic of Section
  5.2, step for step: (1) apply permissible selections (preferring
  highest-placed nodes), (2) apply permissible aggregation operators
  with maximal subtrees, (3) resolve remaining selections by pushing
  one side, the other, or both — whichever the size-bound metric says
  is cheapest, (4) push group-by attributes above all others, (5) make
  the order-by list compatible with the tree (Theorem 2), (6) stop.

- :class:`ExhaustiveOptimizer` — Dijkstra over the graph whose nodes
  are f-trees and whose edges are permissible operators (Proposition
  3), with edge costs given by the size bound of the operator's output
  f-tree (Section 5.1).  Exponential in general; bounded by a state cap
  with fallback to the greedy plan.

Both produce :class:`repro.core.fplan.FPlan` objects; the engine runs
the plan and handles output shaping (enumeration or finalisation).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Sequence

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
    ``distinct`` counts); when present, :class:`CostBasedOptimizer`
    prices candidate trees by estimated factorisation size instead of
    the asymptotic ``scale``-based bound.
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
                tree = step.apply_tree(tree)
                pending.remove(equality)
                pending = [eq for eq in pending if not _same_node(tree, eq)]
                continue
            # (2) permissible aggregation operators, maximal subtree.
            if ctx.functions:
                gamma = _best_aggregation(tree, ctx, pending)
                if gamma is not None:
                    steps.append(gamma)
                    tree = gamma.apply_tree(tree)
                    continue
            # (3) restructure for a remaining selection, cheapest push.
            if pending:
                push = _cheapest_push(tree, pending[0], ctx)
                steps.extend(push)
                for step in push:
                    tree = step.apply_tree(tree)
                continue
            # (4) push group-by attributes above non-group attributes.
            swap_up = _grouping_swap(tree, ctx)
            if swap_up is not None:
                steps.append(swap_up)
                tree = swap_up.apply_tree(tree)
                continue
            # (5) establish the Theorem 2 order condition.
            order_swap = _order_swap(tree, ctx)
            if order_swap is not None:
                steps.append(order_swap)
                tree = order_swap.apply_tree(tree)
                continue
            # (6) done.
            return FPlan(steps)
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


def _permissible_selection(
    tree: FTree, pending: Sequence[Equality]
) -> tuple[Step, Equality] | None:
    """The applicable merge/absorb involving the highest-placed node."""
    best: tuple[int, Step, Equality] | None = None
    for equality in pending:
        node_a = tree.node(equality.left)
        node_b = tree.node(equality.right)
        step: Step | None = None
        if tree.parent(node_a) is tree.parent(node_b) and node_a is not node_b:
            step = MergeStep(node_a.name, node_b.name)
        elif tree.is_ancestor(node_a, node_b):
            step = AbsorbStep(node_a.name, node_b.name)
        elif tree.is_ancestor(node_b, node_a):
            step = AbsorbStep(node_b.name, node_a.name)
        if step is None:
            continue
        height = min(tree.depth(node_a), tree.depth(node_b))
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


def _best_aggregation(
    tree: FTree, ctx: PlanContext, pending: Sequence[Equality]
) -> AggregateStep | None:
    """The permissible γ with the largest subtree union, if any."""
    best: tuple[int, AggregateStep] | None = None
    parents: list[FNode | None] = [None] + [node for node in tree.nodes()]
    for parent in parents:
        children = _eligible_children(tree, parent, ctx, pending)
        if not children or not _makes_progress(children):
            continue
        weight = sum(len(list(child.walk())) for child in children)
        if best is None or weight > best[0]:
            best = (weight, _gamma_step(tree, parent, children, ctx))
    return best[1] if best is not None else None


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
        current = step.apply_tree(current)
    return steps, current


def _cheapest_push(
    tree: FTree, equality: Equality, ctx: PlanContext
) -> list[Step]:
    """Option (a)/(b)/(c) of step 3, ranked by summed size bounds."""

    def mergeable(candidate: FTree) -> bool:
        node_a = candidate.node(equality.left)
        node_b = candidate.node(equality.right)
        return (
            node_a is node_b
            or candidate.parent(node_a) is candidate.parent(node_b)
            or candidate.is_ancestor(node_a, node_b)
            or candidate.is_ancestor(node_b, node_a)
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
            ftree_cost(t, ctx.hypergraph, ctx.scale)
            for t in FPlan(steps).simulate(tree)[1:]
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
# Exhaustive search (Section 5.1)
# ---------------------------------------------------------------------------
class ExhaustiveOptimizer:
    """Dijkstra in the graph of f-trees connected by permissible operators.

    Finds the minimum-cost f-plan under the size-bound metric; falls back
    to the greedy plan when the state cap is exceeded.
    """

    def __init__(self, max_states: int = 4000) -> None:
        self.max_states = max_states

    def plan(self, ftree: FTree, ctx: PlanContext) -> FPlan:
        start_pending = tuple(
            eq for eq in ctx.equalities if not _same_node(ftree, eq)
        )
        start = (_signature(ftree), start_pending)
        heap: list[tuple[float, int, FTree, tuple[Equality, ...], tuple[Step, ...]]] = []
        counter = 0
        heapq.heappush(heap, (0.0, counter, ftree, start_pending, ()))
        seen: set = {start}
        expanded = 0
        while heap:
            cost, _, tree, pending, steps = heapq.heappop(heap)
            if self._is_goal(tree, pending, ctx):
                return FPlan(steps)
            expanded += 1
            if expanded > self.max_states:
                break
            for step, new_pending in self._edges(tree, pending, ctx):
                new_tree = step.apply_tree(tree)
                state = (_signature(new_tree), tuple(new_pending))
                if state in seen:
                    continue
                seen.add(state)
                counter += 1
                edge = ftree_cost(new_tree, ctx.hypergraph, ctx.scale)
                heapq.heappush(
                    heap,
                    (cost + edge, counter, new_tree, tuple(new_pending), steps + (step,)),
                )
        return GreedyOptimizer().plan(ftree, ctx)

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
    ) -> Iterator[tuple[Step, list[Equality]]]:
        # Selections (merge/absorb) for every applicable pending equality.
        for equality in pending:
            node_a = tree.node(equality.left)
            node_b = tree.node(equality.right)
            remaining = [eq for eq in pending if eq is not equality]
            if (
                tree.parent(node_a) is tree.parent(node_b)
                and node_a is not node_b
            ):
                yield MergeStep(node_a.name, node_b.name), remaining
            elif tree.is_ancestor(node_a, node_b):
                yield AbsorbStep(node_a.name, node_b.name), remaining
            elif tree.is_ancestor(node_b, node_a):
                yield AbsorbStep(node_b.name, node_a.name), remaining
        # Aggregations: maximal per parent plus each single subtree.
        if ctx.functions:
            parents: list[FNode | None] = [None] + list(tree.nodes())
            for parent in parents:
                children = _eligible_children(tree, parent, ctx, pending)
                if children and _makes_progress(children):
                    yield _gamma_step(tree, parent, children, ctx), list(pending)
                if len(children) > 1:
                    for child in children:
                        if _makes_progress([child]):
                            yield (
                                _gamma_step(tree, parent, [child], ctx),
                                list(pending),
                            )
        # Swaps: any non-root node can be promoted.
        for node in tree.nodes():
            if tree.parent(node) is not None:
                yield SwapStep(node.name), list(pending)


# ---------------------------------------------------------------------------
# Cost-based search (data-driven estimates, cover-bound pruning)
# ---------------------------------------------------------------------------
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

    def plan(self, ftree: FTree, ctx: PlanContext) -> FPlan:
        if not ctx.stats:
            return super().plan(ftree, ctx)
        # Over a single input every path is covered by its one
        # hyperedge (s ≡ 1): the bound can prune nothing there.
        prune = len(ctx.hypergraph.edges) > 1
        budget = 0.0
        if prune:
            greedy_trees = GreedyOptimizer().plan(ftree, ctx).simulate(ftree)
            budget = max(
                (s_parameter(tree, ctx.hypergraph) for tree in greedy_trees),
                default=0.0,
            )
        size_memo: dict = {}
        s_memo: dict = {}
        sig_memo: dict = {}
        # Shared across candidate trees: most differ in very few nodes,
        # so their per-path estimates are overwhelmingly repeats.
        node_memo: dict = {}

        def tree_size(signature, tree: FTree) -> float:
            cached = size_memo.get(signature)
            if cached is None:
                cached = estimated_tree_size(
                    tree, ctx.hypergraph, ctx.stats, ctx.scale, node_memo
                )
                size_memo[signature] = cached
            return cached

        def tree_s(signature, tree: FTree) -> float:
            cached = s_memo.get(signature)
            if cached is None:
                cached = s_parameter(tree, ctx.hypergraph)
                s_memo[signature] = cached
            return cached

        start_pending = tuple(
            eq for eq in ctx.equalities if not _same_node(ftree, eq)
        )
        heap: list[
            tuple[float, int, FTree, tuple[Equality, ...], tuple[Step, ...]]
        ] = []
        counter = 0
        heapq.heappush(heap, (0.0, counter, ftree, start_pending, ()))
        seen: set = {(_signature(ftree, sig_memo), start_pending)}
        expanded = 0
        while heap:
            cost, _, tree, pending, steps = heapq.heappop(heap)
            if self._is_goal(tree, pending, ctx):
                return FPlan(steps)
            expanded += 1
            if expanded > self.max_states:
                break
            for step, new_pending in self._edges(tree, pending, ctx):
                new_tree = step.apply_tree(tree)
                signature = _signature(new_tree, sig_memo)
                state = (signature, tuple(new_pending))
                if state in seen:
                    continue
                if prune and tree_s(signature, new_tree) > budget + 1e-9:
                    continue
                seen.add(state)
                counter += 1
                heapq.heappush(
                    heap,
                    (
                        cost + tree_size(signature, new_tree),
                        counter,
                        new_tree,
                        tuple(new_pending),
                        steps + (step,),
                    ),
                )
        return GreedyOptimizer().plan(ftree, ctx)


def _signature(tree: FTree, memo: "dict | None" = None):
    """Structural state signature (order-insensitive among siblings).

    Candidate trees of one search share the subtrees a step left alone
    (the same node objects), so ``memo`` — node → signature, kept for
    the search — computes each subtree's signature once.
    """
    memo = {} if memo is None else memo
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
