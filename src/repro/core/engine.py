"""The FDB query engine: plan and place once, replay per run.

:meth:`FDBEngine.compile` derives everything the f-plan depends on from
the catalogue alone, exactly once (:meth:`FDBEngine.planning_inputs`):

1. *inputs* — registered factorised views are used directly; flat
   relations are factorised over path f-trees (with join attributes
   near the root).  Where an expression selection reads independent
   branches of a view, a χ prefix puts them on one path.  Multiple
   inputs are combined with the product operator; natural joins over
   shared attribute names are canonicalised into explicit equality
   selections with renames, as in the paper's formulation (Section 5.1);
2. *f-plan* — the optimiser (Section 5) compiles equality selections,
   partial aggregation and restructuring into a plan over the input
   f-tree; the plan never reads a value.

Every step — χ prefix, selection, f-plan — is placed on its f-tree
there, once (:class:`repro.core.operators.Placement`): output tree,
level and kernel arguments, with fresh keys and γ names minted, so the
trees ``explain()`` prints are the trees that run.  The
:class:`FDBCompiled` artifact carries the placements and the planning
context to :meth:`FDBEngine.execute_planned`, :meth:`FDBEngine.explain`
and the plan verifier (:mod:`repro.analysis.verifier`).  A run builds
the input factorisation from the current data over the compiled input
tree (:func:`build_inputs`), replays the placements — each selection
with this run's constants — as level kernels only, and hands the result
to the output stage (:mod:`repro.core.output`).

The engine is read-only with respect to the database: operators share
unchanged fragments instead of mutating them.
"""

from __future__ import annotations

import gc
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

from repro.core import aggregates as agg
from repro.core import operators as ops
from repro.core.build import factorise_path
from repro.core.cost import Hypergraph, estimated_node_count, s_parameter
from repro.core.enumerate import merge_steps, on_demand_swap
from repro.core.fplan import ExecutionTrace, FPlan, SwapStep, select_steps
from repro.core.frep import Factorisation
from repro.core.ftree import FTree, path_ftree
from repro.core.optimizer import (
    CostBasedOptimizer,
    ExhaustiveOptimizer,
    GreedyOptimizer,
    PlanContext,
    _push_up_steps,
    tree_pricer,
)
from repro.core.output import shape_output
from repro.obs.metrics import metrics
from repro.obs.state import STATE
from repro.plan.cache import ftree_signature
from repro.query import Query, QueryError, natural_equalities

if TYPE_CHECKING:  # pragma: no cover - circular import guard
    from repro.database import Database

_OPTIMIZERS = {
    "greedy": GreedyOptimizer,
    "exhaustive": ExhaustiveOptimizer,
    "cost": CostBasedOptimizer,
}

_OPTIMIZER_SECONDS = metrics().histogram(
    "repro_optimizer_seconds",
    "Time spent choosing an f-plan, per optimiser strategy.",
    ("strategy",),
)
_OPTIMIZER_TIMERS = {name: _OPTIMIZER_SECONDS.labels(name) for name in _OPTIMIZERS}

_ESTIMATE_QERROR_FAMILY = metrics().histogram(
    "repro_estimate_qerror",
    "max(estimated/observed, observed/estimated) singletons of each "
    "executed f-plan step, per optimiser strategy.",
    ("strategy",),
    bounds=(1.05, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0, 30.0, 100.0, 1000.0),
)
_ESTIMATE_QERROR = {
    name: _ESTIMATE_QERROR_FAMILY.labels(name) for name in _OPTIMIZERS
}

_PAUSE_LOCK = threading.Lock()
_PAUSE = {"resume": False}


@contextmanager
def _collector_paused():
    """No cyclic garbage collection while an f-plan runs.

    Every step builds thousands of short-lived unions and child columns,
    nearly all of which reference counting frees when the next step
    replaces them.  With the collector on, the young collections that
    fall inside a plan walk them while they are alive and age them into
    the oldest generation, whose count then forces a full collection
    every few queries: a pause longer than the query, at a moment that
    depends on the allocation history and not on the query.  Paused,
    intermediates die young, the few cycles a plan leaves behind go in
    the first young collection after it, and full collections follow
    the growth of what is actually retained.

    The switch is per process.  One plan at a time holds it and turns
    the collector back on (if it was on) when it ends; a plan that
    starts meanwhile leaves the switch alone, so collections cannot be
    held off for longer than one plan however many threads run plans.
    """
    if not _PAUSE_LOCK.acquire(blocking=False):
        yield
        return
    _PAUSE["resume"] = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if _PAUSE["resume"]:
            gc.enable()
        _PAUSE_LOCK.release()


def _unpause_in_child() -> None:
    """A forked child runs no plan, whatever another thread of its
    parent was running at the fork (a forked server)."""
    global _PAUSE_LOCK
    if _PAUSE_LOCK.locked() and _PAUSE["resume"]:
        gc.enable()
    _PAUSE_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_unpause_in_child)


@dataclass(frozen=True)
class PlannedInput:
    """How one input relation enters a compiled plan (see
    :meth:`FDBEngine.planning_inputs`): f-trees and placements only, so
    the plan stays valid as the data changes."""

    name: str
    mapping: dict  # rename map (natural-join disambiguation)
    registered: bool  # the registered factorised view is used
    order: tuple[str, ...]  # path order, join attributes first
    swaps: FPlan  # χ prefix for its expression selections, placed on ``tree``
    tree: FTree  # its f-tree, renamed
    source: "FTree | None"  # the registered view's f-tree it was compiled over


@dataclass(frozen=True)
class OrderSwap:
    """The χ at the end of a compiled SPJ plan that only establishes
    the requested order (Theorem 2), and whether the enumerator merges
    it on demand instead of the plan building it.

    On demand, ``χ↑child`` costs a heap over the parent's entries (the
    fan-out) and one sift per row drawn
    (:func:`repro.core.enumerate.merge_steps`), where the eager swap
    builds the whole swapped factorisation; the merge is chosen when
    it takes fewer steps than the optimiser's estimate of the swap's
    output in singletons.
    ``detail`` says what was merged, or why the swap stayed eager.
    """

    child: str
    on_demand: bool
    detail: str

    def describe(self) -> str:
        how = "on demand" if self.on_demand else "eager"
        return f"χ↑{self.child} {how} ({self.detail})"


@dataclass(frozen=True)
class FDBCompiled:
    """The retained output of :meth:`FDBEngine.compile`.

    ``plan`` is the optimiser-chosen f-plan — the expensive part of
    evaluation, whose cost the LP size bounds of Section 5.1 govern.
    It is *value-independent*: constant-selection values never enter
    the planning context, so one compiled plan serves every parameter
    binding of the same canonical query.  ``inputs`` say how to build
    the input factorisation over ``inputs_tree`` from the current data,
    ``selections`` are the query's selections placed from there (each
    run binds its constants) up to ``ftree``, ``plan.placed`` the plan's
    steps placed from ``ftree``, and ``context`` holds the constraints
    the plan was chosen under.
    """

    query: Query  # effective (projection-resolved), unbound form
    plan: FPlan
    ftree: FTree  # the plan's input f-tree: after the selections
    inputs: tuple[PlannedInput, ...]
    context: PlanContext
    # Optimiser provenance: strategy, estimated final-tree size, the
    # statistics sources the estimate was computed from (None for plans
    # costed purely asymptotically) and the search's fallback, if any.
    provenance: dict
    inputs_tree: FTree  # the product of the inputs' f-trees
    selections: tuple[ops.Placement, ...]
    # The plan's order-only last χ and where it runs (see OrderSwap).
    order_swap: "OrderSwap | None" = None

    @property
    def merged(self) -> str | None:
        """The node of ``plan``'s last χ when the enumerator performs
        that χ on demand instead of the executor."""
        swap = self.order_swap
        return swap.child if swap is not None and swap.on_demand else None


class FDBEngine:
    """Main-memory engine for queries on factorised databases.

    Evaluation is a two-phase lifecycle: :meth:`compile` canonicalises
    the query, chooses the f-plan from the *schema-level* shape of
    the inputs (no data is touched — the optimiser only ever sees the
    f-tree) and places its steps, and :meth:`execute_planned` builds the
    input factorisation from the current data and replays the retained
    placements.
    :meth:`execute_traced` is the one-shot composition of the two.

    Parameters
    ----------
    output:
        ``"flat"`` enumerates result tuples (the paper's FDB);
        ``"factorised"`` returns a
        :class:`repro.core.output.FactorisedResult` (FDB f/o).
    optimizer:
        ``"greedy"`` (Section 5.2), ``"exhaustive"`` (Section 5.1,
        priced by the size bound), or ``"cost"`` (the same search, priced
        by estimates from ``repro.stats`` where statistics exist).
    """

    name = "FDB"

    def __init__(self, output: str = "flat", optimizer: str = "cost") -> None:
        if output not in ("flat", "factorised"):
            raise ValueError(f"unknown output mode {output!r}")
        if optimizer not in _OPTIMIZERS:
            raise ValueError(
                f"unknown optimizer {optimizer!r} "
                f"(expected one of {sorted(_OPTIMIZERS)})"
            )
        self.output = output
        self.optimizer_name = optimizer
        self.optimizer = _OPTIMIZERS[optimizer]()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def execute(self, query: Query, database: "Database"):
        """Run ``query``; returns a Relation or FactorisedResult."""
        result, _, _ = self.execute_traced(query, database)
        return result

    def compile(self, query: Query, database: "Database") -> FDBCompiled:
        """Choose the f-plan for ``query`` without touching any data.

        The input f-tree is derived from the catalogue alone (path
        f-trees over the schemas of flat inputs, the registered tree of
        factorised views), so compilation stays valid until the
        catalogue changes shape — data mutations never stale a plan.
        The provenance prices every tree the plan builds with the price
        the search used (:func:`repro.core.optimizer.tree_pricer`).
        """
        query, inputs, inputs_tree, ctx = self.planning_inputs(query, database)
        selects = FPlan(select_steps(query.comparisons, inputs_tree))
        selections = selects.place(inputs_tree)
        ftree = selections[-1].tree if selections else inputs_tree
        started = time.perf_counter()
        plan = self.optimizer.plan(ftree, ctx)
        _OPTIMIZER_TIMERS[self.optimizer_name].observe(time.perf_counter() - started)
        plan.placed = tuple(plan.place(ftree))
        trees = [ftree, *(placement.tree for placement in plan.placed)]
        estimated = list(map(tree_pricer(ctx), trees))
        order_swap = self._order_swap(query, plan, trees, ctx, estimated[-1])
        if order_swap is not None and order_swap.on_demand:
            # Estimated against what the executor builds.
            estimated.pop()
        sources = None
        if ctx.stats:
            sources = {
                name: (record.source, record.rows)
                for name, record in sorted(ctx.stats.items())
            }
        provenance = {
            "strategy": self.optimizer_name,
            "estimated_size": estimated[-1],
            "estimated_sizes": estimated[1:],
            "stats": sources,
            "fallback": plan.fallback,
        }
        return FDBCompiled(
            query, plan, ftree, inputs, ctx, provenance,
            inputs_tree, tuple(selections), order_swap,
        )

    def _order_swap(
        self,
        query: Query,
        plan: FPlan,
        trees: "list[FTree]",
        ctx: PlanContext,
        estimate: float,
    ) -> "OrderSwap | None":
        """Where the plan's order-only last χ runs (see :class:`OrderSwap`).

        ``None`` unless the query enumerates flat, unaggregated rows of
        the plan's output as they are and that χ is the one swap
        :func:`repro.core.enumerate.on_demand_swap` can merge.  The
        choice depends only on the query and the statistics, so it is
        made once here and retained with the plan.  ``trees`` are the
        plan's placed trees and ``estimate`` the size of the last.
        """
        if (
            self.output != "flat"
            or query.aggregates
            or query.computed
            or not plan.steps
            or not isinstance(plan.steps[-1], SwapStep)
        ):
            return None
        child = plan.steps[-1].child
        before = trees[-2]
        if query.projection is not None and not set(
            before.attribute_names()
        ) <= set(query.projection):
            return None  # the output stage projects first
        if on_demand_swap(before, query.order_by) != child:
            return None
        if query.limit is None:
            return OrderSwap(child, False, "no LIMIT")
        if not ctx.stats:
            return OrderSwap(child, False, "no statistics to price it")
        # The parent's entries per union: its level over its parent's.
        parent = before.parent(before.node(child))
        path = {a for node in before.ancestors(parent) for a in node.attributes}
        fanout = estimated_node_count(
            ctx.hypergraph, path | set(parent.attributes), ctx.stats, ctx.scale
        ) / estimated_node_count(ctx.hypergraph, path, ctx.stats, ctx.scale)
        merge = merge_steps(fanout, query.limit)
        if merge < estimate:
            return OrderSwap(
                child,
                True,
                f"merge of {fanout:.0f} unions, LIMIT {query.limit}",
            )
        return OrderSwap(
            child,
            False,
            f"estimate {estimate:.0f} singletons ≤ {merge} heap steps "
            f"over {fanout:.0f} unions for LIMIT {query.limit}",
        )

    def planning_inputs(
        self, query: Query, database: "Database"
    ) -> tuple[Query, tuple[PlannedInput, ...], FTree, PlanContext]:
        """Everything :meth:`compile` optimises over, derived once.

        Returns ``(effective_query, inputs, ftree, context)``: the
        projection-normalised query; per input relation its rename map,
        whether it is a registered view, its path order (join attributes
        near the root), its f-tree and the χ prefix, placed on it, that
        puts each of its expression selections on one root-to-leaf path;
        the product of the inputs' f-trees (after the χ prefixes, before
        the selections); and the optimiser's
        :class:`repro.core.optimizer.PlanContext` (hypergraph, kept
        attributes, aggregation components, γ coupling/protection
        constraints, and statistics for the cost-based optimiser).
        """
        query = _with_effective_projection(query, database)
        schemas = {name: database.schema(name) for name in query.relations}
        renames, natural = natural_equalities(schemas, query.relations)
        equalities = tuple(natural) + tuple(query.equalities)
        join_attrs = {a for eq in equalities for a in (eq.left, eq.right)}

        inputs: list[PlannedInput] = []
        trees: list[FTree] = []
        hyperedges: dict[str, set[str]] = {}
        pending = [c for c in query.comparisons if c.is_expression]
        for name in query.relations:
            mapping = renames[name]
            schema = tuple(mapping.get(a, a) for a in schemas[name])
            order = tuple(
                sorted(schema, key=lambda a: (a not in join_attrs, schema.index(a)))
            )
            view = database.get_factorised(name)
            if view is not None:
                tree = view.ftree
                for old, new in mapping.items():
                    tree = ops.rename(tree, old, new).tree
            else:
                tree = path_ftree(order, name)
            # An expression selection is tested on one root-to-leaf path
            # of its input's f-tree (a χ prefix puts its attributes there).
            swaps: tuple = ()
            current = tree
            for condition in [c for c in pending if set(c.attributes) <= set(schema)]:
                attrs = condition.attributes
                for attribute in attrs:
                    more, current = _push_up_steps(
                        current, attribute, lambda t: t.on_one_path(attrs)
                    )
                    swaps += tuple(more)
                if current.on_one_path(attrs):
                    pending.remove(condition)
            prefix = FPlan(swaps, FPlan(swaps).place(tree))
            trees.append(prefix.placed[-1].tree if swaps else tree)
            source = view.ftree if view is not None else None
            inputs.append(
                PlannedInput(
                    name, mapping, view is not None, order, prefix, tree, source
                )
            )
            hyperedges[name] = set(schema)
        if pending:
            raise QueryError(
                f"expression selection {pending[0]} references attributes "
                "of more than one input relation (or unknown attributes, or "
                "independent trees of one input); the FDB engine evaluates "
                "expression selections on one path of one input relation"
            )

        ftree = trees[0] if len(trees) == 1 else FTree([r for t in trees for r in t.roots])
        classes = _equivalence_classes(equalities)
        hypergraph = Hypergraph(hyperedges).with_equivalences(classes)
        ctx = self._plan_context(query, ftree, hypergraph, equalities)
        if self.optimizer_name == "cost":
            ctx.stats = self._planning_stats(database, inputs, classes)
        return query, tuple(inputs), ftree, ctx

    @_collector_paused()
    def execute_planned(
        self, compiled: FDBCompiled, query: Query, database: "Database"
    ) -> tuple[Any, FPlan, ExecutionTrace]:
        """Run a compiled plan against the current data.

        ``query`` is the runtime (parameter-bound) form of
        ``compiled.query``: the selections' constants and output shaping
        come from it, while the planning work is skipped entirely — no
        step is placed: the retained placements replay against an input
        factorisation built as ``compiled.inputs`` say.
        """
        if query.projection != compiled.query.projection:
            query = replace(query, projection=compiled.query.projection)
        fact = build_inputs(compiled, database)
        trace = ExecutionTrace()
        stats = agg.ExpressionStats()
        trace.expression_stats = stats
        trace.provenance = compiled.provenance
        order_swap = compiled.order_swap
        if order_swap is not None:
            trace.enumeration = order_swap.describe()

        # Selections first (Section 5.1: evaluated in one pass each),
        # placed at compile; a selection's comparisons are its kernel's
        # first argument, bound here to this run's constants.
        selects = select_steps(query.comparisons, compiled.inputs_tree)
        if len(selects) != len(compiled.selections):
            raise QueryError("the query's selections are not its plan's")
        bound = [
            placement._replace(args=(step.conditions, *placement.args[1:]))
            for step, placement in zip(selects, compiled.selections)
        ]
        fact = FPlan(selects, bound).execute(fact, trace)
        merged = compiled.merged
        plan = compiled.plan
        if merged:
            plan = FPlan(plan.steps[:-1], plan.placed[:-1])
        fact = plan.execute(fact, trace)
        if STATE.enabled and plan.steps:
            qerror = _ESTIMATE_QERROR[self.optimizer_name]
            observed = trace.sizes[-len(plan.steps):]
            for estimate, size in zip(compiled.provenance["estimated_sizes"], observed):
                if estimate and size:
                    qerror.observe(max(estimate / size, size / estimate))

        result = shape_output(self.output, query, fact, stats, merged)
        return result, compiled.plan, trace

    def execute_traced(
        self, query: Query, database: "Database"
    ) -> tuple[Any, FPlan, ExecutionTrace]:
        """Run ``query``; returns ``(result, f-plan, execution trace)``.

        Stateless (one engine instance serves concurrent callers):
        compiles and immediately executes.  Callers that re-run a query
        should retain the :meth:`compile` artifact and call
        :meth:`execute_planned` instead.
        """
        return self.execute_planned(self.compile(query, database), query, database)

    def explain(self, query: Query, database: "Database") -> str:
        """Compile the query and describe the plan (:meth:`render`)."""
        return self.render(self.compile(query, database))

    def render(self, compiled: FDBCompiled, query: "Query | None" = None) -> str:
        """Describe the compiled plan without executing or planning it.

        ``query`` is the runtime (parameter-bound) form it runs with, as
        for :meth:`execute_planned`; by default ``compiled.query``.
        Shows the input f-tree, each f-plan step with the size-bound
        exponent of its output (the optimisation metric of Section 5),
        and the output shaping the engine would apply.
        """
        if query is None:
            query = compiled.query
        else:
            query = replace(query, projection=compiled.query.projection)
        plan, ftree = compiled.plan, compiled.ftree
        provenance = compiled.provenance
        lines = [f"query: {query}"]
        lines.append(
            f"optimizer: {provenance['strategy']} · estimated result size "
            f"{provenance['estimated_size']:.0f} singletons"
        )
        if provenance["stats"]:
            rendered = ", ".join(
                f"{name} ({source}, {rows} rows)"
                for name, (source, rows) in provenance["stats"].items()
            )
            lines.append(f"statistics: {rendered}")
        if provenance["fallback"]:
            lines.append(f"fallback: {provenance['fallback']}")
        for planned in filter(lambda planned: planned.swaps, compiled.inputs):
            lines.append(f"{planned.name}: {planned.swaps}  (one path per σ)")
        lines.append("input f-tree:")
        lines.extend("  " + line for line in ftree.pretty().splitlines())
        for select in select_steps(query.comparisons, ftree):
            lines.append(f"{select}  (one traversal)")
        hypergraph = compiled.context.hypergraph
        for step, placement in zip(plan, plan.placed):
            exponent = s_parameter(placement.tree, hypergraph)
            lines.append(f"{str(step):<44} bound O(|D|^{exponent:.2f})")
        if query.aggregates:
            mode = (
                "finalise into a single aggregate attribute (f/o)"
                if self.output == "factorised"
                else "fold the partial aggregates into one leaf per group "
                "(one γ), enumerate the groups"
            )
            lines.append(f"output: {mode}")
            expression_specs = [spec for spec in query.aggregates if spec.is_expression]
            if expression_specs:
                rendered = ", ".join(str(s) for s in expression_specs)
                lines.append(
                    f"expression aggregates: {rendered} — sums of products "
                    "distribute over independent branches (Section 3.2); "
                    "co-occurring attributes flatten locally"
                )
        elif query.computed:
            rendered = ", ".join(str(c) for c in query.computed)
            lines.append(f"computed columns: {rendered} (evaluated row-wise)")
        elif query.order_by:
            lines.append(
                "output: ordered constant-delay enumeration "
                f"by ({', '.join(str(k) for k in query.order_by)})"
            )
            if compiled.order_swap is not None:
                lines.append(f"order: {compiled.order_swap.describe()}")
        else:
            lines.append("output: constant-delay enumeration")
        if query.limit is not None:
            lines.append(f"limit: first {query.limit} tuples (λ)")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Statistics and planning context
    # ------------------------------------------------------------------
    def _planning_stats(
        self,
        database: "Database",
        inputs: "list[PlannedInput]",
        classes: "list[set[str]]",
    ) -> "dict | None":
        """Statistics for the cost-based optimiser, keyed per input.

        Pulls each input's record through the process-global
        :func:`repro.stats.stats_cache`, applies the natural-join
        renames so attribute names match the planning hypergraph, and
        cross-populates equivalence classes: a selection A=B bounds the
        class by the smallest distinct count either side observed, so
        relations covering the class through an equivalence-extended
        edge inherit that entry.
        """
        from repro.stats import stats_cache

        cache = stats_cache()
        stats: dict = {}
        for planned in inputs:
            record = cache.relation_stats(database, planned.name)
            if record is None:
                continue
            stats[planned.name] = record.renamed(planned.mapping)
        if not stats:
            return None
        for cls in classes:
            members = frozenset(cls)
            for name, record in list(stats.items()):
                held = members & set(record.attributes)
                missing = members - set(record.attributes)
                if not held or not missing:
                    continue
                best = min(
                    (record.attributes[a] for a in held),
                    key=lambda entry: entry.distinct,
                )
                stats[name] = record.extended(dict.fromkeys(missing, best))
        return stats

    def _plan_context(
        self,
        query: Query,
        ftree: FTree,
        hypergraph: Hypergraph,
        equalities: tuple,
    ) -> PlanContext:
        aliases = {spec.alias for spec in query.aggregates}
        aliases.update(column.alias for column in query.computed)
        order = tuple(key for key in query.order_by if key.attribute not in aliases)
        coupled: tuple = ()
        protected: frozenset = frozenset()
        if query.aggregates:
            kept = frozenset(query.group_by)
            # The planner materialises attribute-level partials only;
            # expression components are evaluated by the output stage
            # over whatever fragments the constraints kept atomic.
            functions = agg.planner_components(query.aggregates)
            coupled, protected = agg.expression_constraints(query.aggregates)
        else:
            kept_list = (
                query.projection
                if query.projection is not None
                else tuple(query.group_by) or tuple(ftree.attribute_names())
            )
            kept = frozenset(kept_list) | {key.attribute for key in order}
            for column in query.computed:
                kept |= set(column.source_attributes)
            functions = ()
        selected = {a for c in query.comparisons for a in c.attributes}
        for attribute in kept | selected | {k.attribute for k in order}:
            if attribute not in ftree:
                raise QueryError(f"query references unknown attribute {attribute!r}")
        return PlanContext(
            hypergraph=hypergraph,
            equalities=equalities,
            kept=kept,
            functions=functions,
            order=order,
            coupled=coupled,
            protected=protected,
        )


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------
def build_inputs(compiled: FDBCompiled, database: "Database") -> Factorisation:
    """The input factorisation of a compiled plan, from the current data,
    over ``compiled.inputs_tree``.

    A registered view's fragments are taken as they stand, over its
    compiled (renamed) f-tree, a flat relation's are factorised over its
    planned path; then each input's χ prefix replays, and the inputs'
    roots side by side are their product.  The placements hold
    positions in the f-tree they were compiled over, so a view whose
    f-tree has changed shape since (a maintenance rebuild) raises
    :class:`repro.query.QueryError` instead of replaying them onto it.
    """
    roots: list = []
    for planned in compiled.inputs:
        if planned.registered:
            view = database.get_factorised(planned.name)
            if view is None or (
                view.ftree is not planned.source
                and ftree_signature(view.ftree) != ftree_signature(planned.source)
            ):
                raise QueryError(
                    f"{planned.name!r} is no longer factorised over the f-tree "
                    "its plan was compiled for; compile the query again"
                )
            fact = Factorisation(planned.tree, view.roots)
        else:
            relation = database.flat(planned.name)
            if planned.mapping:
                relation = relation.rename(planned.mapping)
            path = factorise_path(relation, key=planned.name, order=list(planned.order))
            fact = Factorisation(planned.tree, path.roots)
        roots.extend(planned.swaps.execute(fact).roots)
    return Factorisation(compiled.inputs_tree, roots)


def _with_effective_projection(query: Query, database: "Database") -> Query:
    """Natural-join output schema for star queries over several inputs.

    Without an explicit projection, a multi-relation query outputs every
    attribute once under its first-occurrence name (natural-join
    semantics); the renamed duplicates are projected away.
    """
    if query.projection is not None or query.aggregates or len(query.relations) == 1:
        return query
    seen: list[str] = []
    for name in query.relations:
        for attribute in database.schema(name):
            if attribute not in seen:
                seen.append(attribute)
    return replace(query, projection=tuple(seen))


def _equivalence_classes(equalities) -> list[set[str]]:
    """Union-find over equality selections."""
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for eq in equalities:
        ra, rb = find(eq.left), find(eq.right)
        if ra != rb:
            parent[ra] = rb
    classes: dict[str, set[str]] = {}
    for attr in parent:
        classes.setdefault(find(attr), set()).add(attr)
    return [cls for cls in classes.values() if len(cls) > 1]
