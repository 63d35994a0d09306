"""The FDB query engine: queries with aggregates and ordering on
factorised databases.

``FDBEngine.execute`` runs the full pipeline of the paper:

1. *inputs* — registered factorised views are used directly; flat
   relations are factorised over path f-trees on the fly (with join
   attributes near the root).  Multiple inputs are combined with the
   product operator; natural joins over shared attribute names are
   canonicalised into explicit equality selections with renames, as in
   the paper's formulation (Section 5.1);
2. *constant selections* — evaluated in one traversal each;
3. *f-plan* — the optimiser (greedy by default, Section 5.2) compiles
   equality selections, partial aggregation and restructuring into a
   plan, which is executed operator by operator;
4. *output shaping* —

   - flat output (the paper's "FDB"): group assignments are enumerated
     with constant delay and the remaining partial aggregates are
     combined on the fly (Example 1, case 3); order-by and limit ride on
     the sorted unions (Theorems 1-2);
   - factorised output ("FDB f/o"): the partial aggregates are collapsed
     into a single aggregate attribute under a linearised group-by path,
     yielding a factorisation of the query result.

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
from itertools import chain, islice
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from repro.core import aggregates as agg
from repro.core import kernels
from repro.core import operators as ops
from repro.core.build import factorise_path
from repro.core.cost import (
    Hypergraph,
    estimated_node_count,
    estimated_tree_size,
    ftree_cost,
)
from repro.core.enumerate import (
    iter_blocks,
    iter_group_contexts,
    merge_steps,
    on_demand_swap,
    restructure_for_order,
    supports_order,
)
from repro.core.fplan import ExecutionTrace, FPlan, SelectStep, SwapStep
from repro.core.frep import (
    CUnion,
    Factorisation,
    level_values,
    map_cunion_level,
    singleton_cunion,
    splice_level,
)
from repro.core.ftree import (
    AggregateAttribute,
    FNode,
    FTree,
    fresh_aggregate_name,
    path_ftree,
)
from repro.core.optimizer import (
    CostBasedOptimizer,
    ExhaustiveOptimizer,
    GreedyOptimizer,
    PlanContext,
)
from repro.expr import Expr
from repro.obs import clock, spans
from repro.obs.metrics import metrics
from repro.obs.state import STATE
from repro.query import (
    AggregateSpec,
    Query,
    QueryError,
    natural_equalities,
    target_attributes,
)
from repro.relational.relation import Relation
from repro.relational.sort import SortKey, normalise_order, sort_rows

if TYPE_CHECKING:  # pragma: no cover - circular import guard
    from repro.database import Database

_OPTIMIZER_SECONDS = metrics().histogram(
    "repro_optimizer_seconds",
    "Time spent choosing an f-plan, per optimiser strategy.",
    ("strategy",),
)
_OPTIMIZER_TIMERS = {
    "greedy": _OPTIMIZER_SECONDS.labels("greedy"),
    "exhaustive": _OPTIMIZER_SECONDS.labels("exhaustive"),
    "cost": _OPTIMIZER_SECONDS.labels("cost"),
}

_ESTIMATE_QERROR_FAMILY = metrics().histogram(
    "repro_estimate_qerror",
    "max(estimated/observed, observed/estimated) singletons of each "
    "executed f-plan step, per optimiser strategy.",
    ("strategy",),
    bounds=(1.05, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0, 30.0, 100.0, 1000.0),
)
_ESTIMATE_QERROR = {
    name: _ESTIMATE_QERROR_FAMILY.labels(name) for name in _OPTIMIZER_TIMERS
}

_ENUMERATE_SECONDS = kernels.KERNEL_SECONDS.labels("enumerate")

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
    parent was running at the fork (shard workers, a forked server)."""
    global _PAUSE_LOCK
    if _PAUSE_LOCK.locked() and _PAUSE["resume"]:
        gc.enable()
    _PAUSE_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_unpause_in_child)

_OPTIMIZERS = {
    "greedy": GreedyOptimizer,
    "exhaustive": ExhaustiveOptimizer,
    "cost": CostBasedOptimizer,
}


class FactorisedResult:
    """Factorised query output (the FDB f/o mode).

    Wraps the result factorisation together with the query's output
    schema; tuples can be enumerated (optionally ordered/limited)
    without flattening the representation.
    """

    def __init__(
        self,
        factorisation: Factorisation,
        output_schema: Sequence[str],
        aggregate_node: str | None = None,
        specs: Sequence[AggregateSpec] = (),
        order: Sequence[SortKey] = (),
        limit: int | None = None,
        computed: Sequence = (),
    ) -> None:
        self.factorisation = factorisation
        self.output_schema = tuple(output_schema)
        self.aggregate_node = aggregate_node
        self.specs = tuple(specs)
        self.order = tuple(order)
        self.limit = limit
        self.computed = tuple(computed)

    def size(self) -> int:
        """Singleton count of the result representation."""
        return self.factorisation.size()

    def iter_blocks(self) -> Iterator[list[tuple]]:
        """Result rows in the query's order, block by block (no limit)."""
        fact = self.factorisation
        order = [key for key in self.order if key.attribute in fact.ftree]
        if self.computed:
            columns, shape = _computed_shaper(
                self.output_schema[: -len(self.computed)], self.computed
            )
            blocks = iter_blocks(fact, order, columns)
            return ([shape(row) for row in block] for block in blocks)
        if self.aggregate_node is None:
            return iter_blocks(fact, order, self.output_schema)
        # Group attributes, then the aliases read off the aggregate
        # node's component tuple (the node may itself carry an alias).
        cut = len(self.output_schema) - len(self.specs)
        finalise = _finaliser(
            self.specs, fact.ftree.node(self.aggregate_node).aggregate.functions
        )
        blocks = iter_blocks(
            fact, order, self.output_schema[:cut] + (self.aggregate_node,)
        )
        return (
            [row[:cut] + finalise(row[cut]) for row in block] for block in blocks
        )

    def iter_tuples(self) -> Iterator[tuple]:
        """Enumerate result tuples in the query's order."""
        return islice(chain.from_iterable(self.iter_blocks()), self.limit)

    def to_relation(self, name: str = "") -> Relation:
        return Relation.adopt(
            self.output_schema, _drain(self.iter_tuples()), name=name or "result"
        )


def _drain(rows: Iterable[tuple]) -> list[tuple]:
    """Materialise enumerated rows; the ``enumerate`` kernel and span."""
    if not STATE.enabled:
        return list(rows)
    started = clock.now()
    if spans.current_span() is None:
        out = list(rows)
    else:
        with spans.span("enumerate") as span:
            out = list(rows)
            span.attributes["rows"] = len(out)
    _ENUMERATE_SECONDS.observe(clock.now() - started)
    return out


def _finaliser(
    specs: Sequence[AggregateSpec],
    functions: Sequence[tuple[str, "str | Expr | None"]],
) -> Callable[[tuple], tuple]:
    """``component tuple -> tuple of the specs' values`` (avg = sum/count,
    NULL over zero rows as in SQL)."""
    functions = list(functions)
    count = functions.index(("count", None)) if ("count", None) in functions else None
    picks = []
    for spec in specs:
        if spec.function == "count":
            picks.append((count, None))
        elif spec.function == "avg":
            picks.append((functions.index(("sum", spec.attribute)), count))
        else:
            picks.append((functions.index((spec.function, spec.attribute)), None))
    if any(divisor is not None for _, divisor in picks):
        return lambda value: tuple(
            value[index]
            if divisor is None
            else (value[index] / value[divisor] if value[divisor] else None)
            for index, divisor in picks
        )
    indexes = [index for index, _ in picks]
    return lambda value: tuple([value[index] for index in indexes])


def _computed_shaper(
    plain: Sequence[str], computed: Sequence
) -> tuple[list[str], Callable[[tuple], tuple]]:
    """Columns to enumerate and the row function appending the computed
    columns to the ``plain`` ones."""
    sources = sorted({a for column in computed for a in column.source_attributes})
    cut = len(plain)

    def shape(row: tuple) -> tuple:
        binding = dict(zip(sources, row[cut:]))
        return row[:cut] + tuple(
            [column.expression.evaluate(binding) for column in computed]
        )

    return list(plain) + sources, shape


@dataclass(frozen=True)
class _InputDecision:
    """Structural choices for one input relation (see
    :meth:`FDBEngine._input_decisions`)."""

    name: str
    mapping: dict  # rename map (natural-join disambiguation)
    registered: "Factorisation | None"  # usable registered view, if any
    schema: tuple[str, ...]  # post-rename attribute names
    order: tuple[str, ...]  # path order, join attributes first


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


@dataclass
class FDBCompiled:
    """The retained output of :meth:`FDBEngine.compile`.

    ``plan`` is the optimiser-chosen f-plan — the expensive part of
    evaluation, whose cost the LP size bounds of Section 5.1 govern.
    It is *value-independent*: constant-selection values never enter
    the planning context, so one compiled plan serves every parameter
    binding of the same canonical query.  ``ftree``/``hypergraph``
    exist for explain/simulation and may be stripped (``lite()``) when
    the artifact crosses a process boundary.
    """

    query: Query  # effective (projection-resolved), unbound form
    plan: FPlan
    ftree: "FTree | None" = None
    hypergraph: "Hypergraph | None" = None
    # Optimiser provenance: strategy, estimated final-tree size, and
    # the statistics sources the estimate was computed from (None for
    # plans costed purely asymptotically).
    provenance: "dict | None" = None
    # The plan's order-only last χ and where it runs (see OrderSwap).
    order_swap: "OrderSwap | None" = None

    def lite(self) -> "FDBCompiled":
        """A copy without the explain-only payload (cheap to pickle)."""
        return FDBCompiled(
            self.query,
            self.plan,
            provenance=self.provenance,
            order_swap=self.order_swap,
        )

    @property
    def merged(self) -> str | None:
        """The node of ``plan``'s last χ when the enumerator performs
        that χ on demand instead of the executor."""
        swap = self.order_swap
        return swap.child if swap is not None and swap.on_demand else None


class FDBEngine:
    """Main-memory engine for queries on factorised databases.

    Evaluation is a two-phase lifecycle: :meth:`compile` canonicalises
    the query and chooses the f-plan from the *schema-level* shape of
    the inputs (no data is touched — the optimiser only ever sees the
    f-tree), and :meth:`execute_planned` builds the input factorisation
    from the current data and replays the retained plan.
    :meth:`execute_traced` is the one-shot composition of the two.

    Parameters
    ----------
    output:
        ``"flat"`` enumerates result tuples (the paper's FDB);
        ``"factorised"`` returns a :class:`FactorisedResult` (FDB f/o).
    optimizer:
        ``"greedy"`` (Section 5.2), ``"exhaustive"`` (Section 5.1), or
        ``"cost"`` (data-driven search over ``repro.stats`` estimates,
        falling back to exhaustive when no statistics are available).
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
        """
        query, ftree, hypergraph, ctx = self.planning_inputs(query, database)
        started = time.perf_counter()
        plan = self.optimizer.plan(ftree, ctx)
        _OPTIMIZER_TIMERS[self.optimizer_name].observe(
            time.perf_counter() - started
        )
        provenance = self._provenance(plan, ftree, ctx)
        order_swap = self._order_swap(query, plan, ftree, ctx, provenance)
        if order_swap is not None and order_swap.on_demand:
            # Estimated against what the executor builds.
            provenance = self._provenance(FPlan(plan.steps[:-1]), ftree, ctx)
        return FDBCompiled(
            query, plan, ftree, hypergraph, provenance, order_swap
        )

    def _provenance(
        self, plan: FPlan, ftree: FTree, ctx: PlanContext
    ) -> dict:
        """Optimiser provenance for explain: strategy + estimated cost
        (of the final tree, and of every intermediate one)."""
        trees = plan.simulate(ftree)
        if ctx.stats:
            node_memo: dict = {}
            estimated = [
                estimated_tree_size(
                    tree, ctx.hypergraph, ctx.stats, ctx.scale, node_memo
                )
                for tree in trees
            ]
            sources = {
                name: (record.source, record.rows)
                for name, record in sorted(ctx.stats.items())
            }
        else:
            estimated = [
                ftree_cost(tree, ctx.hypergraph, ctx.scale) for tree in trees
            ]
            sources = None
        return {
            "strategy": self.optimizer_name,
            "estimated_size": estimated[-1],
            "estimated_sizes": estimated[1:],
            "stats": sources,
        }

    def _order_swap(
        self,
        query: Query,
        plan: FPlan,
        ftree: FTree,
        ctx: PlanContext,
        provenance: dict,
    ) -> "OrderSwap | None":
        """Where the plan's order-only last χ runs (see :class:`OrderSwap`).

        ``None`` unless the query enumerates flat, unaggregated rows of
        the plan's output as they are and that χ is the one swap
        :func:`repro.core.enumerate.on_demand_swap` can merge.  The
        choice depends only on the query and the statistics, so it is
        made once here and retained with the plan.
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
        before = plan.simulate(ftree)[-2]
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
        estimate = provenance["estimated_sizes"][-1]
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
    ) -> tuple[Query, FTree, Hypergraph, PlanContext]:
        """The schema-level state :meth:`compile` optimises over.

        Returns ``(effective_query, ftree, hypergraph, context)``: the
        projection-normalised query, the input f-tree derived from the
        catalogue, its hypergraph, and the optimiser's
        :class:`repro.core.optimizer.PlanContext` (kept attributes,
        aggregation components, γ coupling/protection constraints).
        Exposed so the plan verifier (:mod:`repro.analysis`) can replay
        a compiled plan under exactly the constraints it was planned
        with.
        """
        query = _with_effective_projection(query, database)
        decisions, _, hypergraph, equalities = self._input_decisions(
            query, database
        )
        ftree = self._shape_from_decisions(decisions)
        ctx = self._plan_context(query, ftree, hypergraph, equalities)
        if self.optimizer_name == "cost":
            ctx.stats = self._planning_stats(database, decisions, equalities)
        return query, ftree, hypergraph, ctx

    @_collector_paused()
    def execute_planned(
        self, compiled: FDBCompiled, query: Query, database: "Database"
    ) -> tuple[Any, FPlan, ExecutionTrace]:
        """Run a compiled plan against the current data.

        ``query`` is the runtime (parameter-bound) form of
        ``compiled.query``: selections and output shaping come from it,
        while the optimisation work is skipped entirely — the retained
        ``compiled.plan`` replays against a freshly built input
        factorisation.
        """
        query = _with_effective_projection(query, database)
        fact, _, _ = self._prepare_inputs(query, database)
        trace = ExecutionTrace()
        stats = agg.ExpressionStats()
        trace.expression_stats = stats
        trace.provenance = compiled.provenance
        order_swap = compiled.order_swap
        if order_swap is not None:
            trace.enumeration = order_swap.describe()

        # Constant selections first (Section 5.1: evaluated in one
        # pass); expression selections were pushed into the inputs by
        # ``_prepare_inputs``.
        select_plan = FPlan(
            [SelectStep(c) for c in query.comparisons if not c.is_expression]
        )
        fact = select_plan.execute(fact, trace)
        merged = compiled.merged
        plan = FPlan(compiled.plan.steps[:-1]) if merged else compiled.plan
        fact = plan.execute(fact, trace)
        if STATE.enabled and compiled.provenance and plan.steps:
            qerror = _ESTIMATE_QERROR[self.optimizer_name]
            observed = trace.sizes[-len(plan.steps):]
            for estimate, size in zip(
                compiled.provenance["estimated_sizes"], observed
            ):
                if estimate and size:
                    qerror.observe(max(estimate / size, size / estimate))

        if query.aggregates:
            result = self._shape_aggregate_output(query, fact, stats)
        else:
            result = self._shape_spj_output(query, fact, merged)
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
        return self.execute_planned(
            self.compile(query, database), query, database
        )

    def explain(self, query: Query, database: "Database") -> str:
        """Compile the query and describe the plan without executing it.

        Shows the input f-tree, each f-plan step with the size-bound
        exponent of its output (the optimisation metric of Section 5),
        and the output shaping the engine would apply.
        """
        from repro.core.cost import s_parameter

        query, ftree, hypergraph, ctx = self.planning_inputs(query, database)
        plan = self.optimizer.plan(ftree, ctx)
        provenance = self._provenance(plan, ftree, ctx)
        order_swap = self._order_swap(query, plan, ftree, ctx, provenance)
        trees = plan.simulate(ftree)
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
        expression_selects = [c for c in query.comparisons if c.is_expression]
        if expression_selects:
            conditions = " ∧ ".join(str(c) for c in expression_selects)
            lines.append(
                f"σ[{conditions}]  (row-wise on the owning input relation)"
            )
        lines.append("input f-tree:")
        lines.extend("  " + line for line in ftree.pretty().splitlines())
        simple_selects = [c for c in query.comparisons if not c.is_expression]
        if simple_selects:
            conditions = " ∧ ".join(str(c) for c in simple_selects)
            lines.append(f"σ[{conditions}]  (one traversal)")
        for step, tree in zip(plan, trees[1:]):
            exponent = s_parameter(tree, hypergraph)
            lines.append(f"{str(step):<44} bound O(|D|^{exponent:.2f})")
        if query.aggregates:
            mode = (
                "finalise into a single aggregate attribute (f/o)"
                if self.output == "factorised"
                else "enumerate groups, combining partial aggregates on the fly"
            )
            lines.append(f"output: {mode}")
            expression_specs = [
                spec for spec in query.aggregates if spec.is_expression
            ]
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
            if order_swap is not None:
                lines.append(f"order: {order_swap.describe()}")
        else:
            lines.append("output: constant-delay enumeration")
        if query.limit is not None:
            lines.append(f"limit: first {query.limit} tuples (λ)")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Input preparation
    # ------------------------------------------------------------------
    def _input_decisions(
        self, query: Query, database: "Database"
    ) -> tuple[list["_InputDecision"], dict, Hypergraph, tuple]:
        """The structural decisions shared by compile and run.

        For each input relation: the rename mapping, whether the
        registered factorisation is usable (an expression selection
        forces the flat path), the renamed schema, and the path order
        (join attributes near the root).  Compile (:meth:`_input_shape`)
        and run (:meth:`_prepare_inputs`) both consume exactly this —
        one source of truth, so a plan chosen at compile time applies
        verbatim to the factorisation built at run time.
        """
        schemas = {name: database.schema(name) for name in query.relations}
        renames, natural = natural_equalities(schemas, query.relations)
        selections = _assign_expression_selections(query, schemas, renames)
        join_attrs = set()
        for eq in list(natural) + list(query.equalities):
            join_attrs.update((eq.left, eq.right))

        decisions: list[_InputDecision] = []
        hyperedges: dict[str, set[str]] = {}
        for name in query.relations:
            mapping = renames[name]
            registered = database.get_factorised(name)
            schema = tuple(mapping.get(a, a) for a in schemas[name])
            order = sorted(
                schema,
                key=lambda a: (a not in join_attrs, schema.index(a)),
            )
            decisions.append(
                _InputDecision(
                    name=name,
                    mapping=mapping,
                    registered=(
                        registered if name not in selections else None
                    ),
                    schema=schema,
                    order=tuple(order),
                )
            )
            hyperedges[name] = set(schema)

        equalities = tuple(natural) + tuple(query.equalities)
        classes = _equivalence_classes(equalities)
        hypergraph = Hypergraph(hyperedges).with_equivalences(classes)
        return decisions, selections, hypergraph, equalities

    def _prepare_inputs(
        self, query: Query, database: "Database"
    ) -> tuple[Factorisation, Hypergraph, tuple]:
        decisions, selections, hypergraph, equalities = self._input_decisions(
            query, database
        )
        facts = []
        for decision in decisions:
            if decision.registered is not None:
                fact = decision.registered
                for old, new in decision.mapping.items():
                    fact = ops.rename(fact, old, new)
            else:
                # Expression selections are evaluated row-wise on the
                # (possibly flattened) input before factorisation — a
                # localised filter, since each condition's attributes
                # live in exactly one input.
                relation = database.flat(decision.name)
                if decision.mapping:
                    relation = relation.rename(decision.mapping)
                for condition in selections.get(decision.name, ()):
                    expression = condition.attribute
                    positions = [
                        (a, relation.position(a))
                        for a in expression.attributes()
                    ]
                    relation = Relation(
                        relation.schema,
                        [
                            row
                            for row in relation.rows
                            if condition.test(
                                expression.evaluate(
                                    {a: row[p] for a, p in positions}
                                )
                            )
                        ],
                        name=relation.name,
                    )
                fact = factorise_path(
                    relation, key=decision.name, order=list(decision.order)
                )
            facts.append(fact)

        fact = facts[0]
        for other in facts[1:]:
            fact = ops.product(fact, other)
        return fact, hypergraph, equalities

    def _input_shape(
        self, query: Query, database: "Database"
    ) -> tuple[FTree, Hypergraph, tuple]:
        """Schema-level twin of :meth:`_prepare_inputs`: the f-tree the
        inputs *will* have, without building any factorisation.

        Consumes the same :meth:`_input_decisions`, so both phases
        agree by construction: registered factorised views contribute
        their own (renamed) f-tree, flat inputs the path f-tree over
        the decided attribute order.
        """
        decisions, _, hypergraph, equalities = self._input_decisions(
            query, database
        )
        return self._shape_from_decisions(decisions), hypergraph, equalities

    @staticmethod
    def _shape_from_decisions(decisions: "list[_InputDecision]") -> FTree:
        trees: list[FTree] = []
        for decision in decisions:
            if decision.registered is not None:
                tree = decision.registered.ftree
                for old, new in decision.mapping.items():
                    tree = ops.rename_tree(tree, old, new)
            else:
                tree = path_ftree(
                    decision.schema, decision.name, decision.order
                )
            trees.append(tree)
        roots = tuple(root for tree in trees for root in tree.roots)
        return FTree(roots)

    def _planning_stats(
        self,
        database: "Database",
        decisions: "list[_InputDecision]",
        equalities: tuple,
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
        for decision in decisions:
            record = cache.relation_stats(database, decision.name)
            if record is None:
                continue
            stats[decision.name] = record.renamed(decision.mapping)
        if not stats:
            return None
        for cls in _equivalence_classes(equalities):
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
                stats[name] = record.extended(
                    {attribute: best for attribute in missing}
                )
        return stats

    # ------------------------------------------------------------------
    # Planning context
    # ------------------------------------------------------------------
    def _plan_context(
        self,
        query: Query,
        ftree: FTree,
        hypergraph: Hypergraph,
        equalities: tuple,
    ) -> PlanContext:
        aliases = {spec.alias for spec in query.aggregates}
        aliases.update(column.alias for column in query.computed)
        order = tuple(
            key for key in query.order_by if key.attribute not in aliases
        )
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
        for attribute in kept | {k.attribute for k in order}:
            if attribute not in ftree:
                raise QueryError(
                    f"query references unknown attribute {attribute!r}"
                )
        return PlanContext(
            hypergraph=hypergraph,
            equalities=equalities,
            kept=kept,
            functions=functions,
            order=order,
            coupled=coupled,
            protected=protected,
        )

    # ------------------------------------------------------------------
    # Aggregate output
    # ------------------------------------------------------------------
    def _shape_aggregate_output(
        self,
        query: Query,
        fact: Factorisation,
        stats: "agg.ExpressionStats | None" = None,
    ):
        aliases = {spec.alias for spec in query.aggregates}
        order_has_alias = any(
            key.attribute in aliases for key in query.order_by
        )
        if self.output == "factorised":
            return self._finalised_result(query, fact, stats)
        if order_has_alias:
            if len(query.aggregates) == 1:
                # The paper's route: finalise, promote the aggregate node
                # (a swap), enumerate in sorted order.
                return self._finalised_result(query, fact, stats).to_relation(
                    query.name
                )
            # Several aggregates ordered by one alias: combine on the fly
            # and sort the (small) aggregated result.
            unordered = replace(query, order_by=(), limit=None)
            result = self._flat_aggregate_output(unordered, fact, stats)
            rows = sort_rows(result.rows, result.schema, query.order_by)
            if query.limit is not None:
                rows = rows[: query.limit]
            return Relation.adopt(result.schema, rows, name=query.name or "result")
        return self._flat_aggregate_output(query, fact, stats)

    def _flat_aggregate_output(
        self,
        query: Query,
        fact: Factorisation,
        stats: "agg.ExpressionStats | None" = None,
    ) -> Relation:
        """Enumerate groups, combining partial aggregates on the fly."""
        functions = expand_functions(query.aggregates)
        schema = query.output_schema
        order = [
            key for key in query.order_by if key.attribute in query.group_by
        ]
        rows: Iterable[tuple]
        if not query.group_by and agg.forest_is_empty(
            list(zip(fact.ftree.roots, fact.roots))
        ):
            # SQL: ungrouped aggregates over zero input rows still yield
            # one row — COUNT is 0, every other aggregate NULL (matching
            # sqlite).  The emptiness check is structural, since counting
            # over e.g. min-only partial aggregates would not compose.
            rows = [agg.empty_aggregate_row(query.aggregates)]
        elif (
            _needs_contexts(functions, query.group_by)
            or (path := _join_path(fact.ftree, query.group_by)) is None
        ):
            rows = _context_rows(query, fact, functions, order, stats)
        else:
            # The factorised engine's enumerator, without its
            # linearisation: the group region keeps its shape (and so
            # the row order of unordered queries).
            fact, leaf = _fold_partials(fact, query.group_by, path, functions)
            rows = FactorisedResult(
                fact, schema, leaf, query.aggregates, order
            ).iter_tuples()
        if query.having:
            # SQL NULL semantics: a None value satisfies nothing.
            tests = [(schema.index(h.target), h.test) for h in query.having]
            rows = (
                row
                for row in rows
                if all(
                    row[at] is not None and test(row[at]) for at, test in tests
                )
            )
        if query.limit is not None:
            rows = islice(rows, query.limit)
        return Relation.adopt(schema, _drain(rows), name=query.name or "result")

    def _finalised_result(
        self,
        query: Query,
        fact: Factorisation,
        stats: "agg.ExpressionStats | None" = None,
    ) -> FactorisedResult:
        """Collapse partial aggregates into a single aggregate node."""
        functions = expand_functions(query.aggregates)
        aliases = {spec.alias for spec in query.aggregates}
        group_order = _group_path_order(query)
        fact = _linearise_group(fact, group_order)
        path = _group_path(fact.ftree, group_order)
        if not group_order and agg.forest_is_empty(
            list(zip(fact.ftree.roots, fact.roots))
        ):
            # Ungrouped aggregates over zero rows: NULL components
            # (counts stay 0) per SQL semantics.
            fact = _aggregate_leaf(
                functions,
                _aggregated_over(fact.ftree, ()),
                agg.empty_aggregate_components(functions),
            )
            node_name = fact.ftree.roots[0].name
        elif _needs_contexts(functions, group_order):
            fact, node_name = _fold_contexts(
                fact, group_order, path, functions, stats
            )
        else:
            fact, node_name = _fold_partials(fact, group_order, path, functions)

        # Ordering: group-attribute keys are honoured by the linearised
        # path; an alias key requires promoting the aggregate node.
        order = tuple(query.order_by)
        if any(key.attribute in aliases for key in order):
            if len(query.aggregates) > 1:
                raise QueryError(
                    "ordering by an alias of a multi-aggregate query is "
                    "not supported in factorised output"
                )
            fact = ops.rename(fact, node_name, query.aggregates[0].alias)
            node_name = query.aggregates[0].alias
            order_names = [
                key.attribute if key.attribute not in aliases else node_name
                for key in order
            ]
            keyed = [
                SortKey(name, key.descending)
                for name, key in zip(order_names, order)
            ]
            for child in restructure_for_order(fact.ftree, keyed):
                fact = ops.swap(fact, child)
            order = tuple(keyed)
        if query.having:
            fact = self._apply_having_factorised(query, fact, node_name)
        return FactorisedResult(
            fact,
            query.output_schema,
            aggregate_node=node_name,
            specs=query.aggregates,
            order=order,
            limit=query.limit,
        )

    def _apply_having_factorised(
        self, query: Query, fact: Factorisation, node_name: str
    ) -> Factorisation:
        node = fact.ftree.node(node_name)
        functions = node.aggregate.functions
        for condition in query.having:
            if condition.target in query.group_by:
                # HAVING over a grouping attribute is a plain selection.
                fact = ops.select_constant(fact, _comparison(condition))
                continue
            spec = next(
                s for s in query.aggregates if s.alias == condition.target
            )
            fact = _select_component(
                fact, node_name, _finaliser((spec,), functions), condition
            )
        return fact

    # ------------------------------------------------------------------
    # SPJ output
    # ------------------------------------------------------------------
    def _shape_spj_output(
        self, query: Query, fact: Factorisation, merged: str | None = None
    ):
        """Flat or factorised SPJ output.  ``merged``: the order's last
        χ, left to the enumerator (:class:`OrderSwap`) — rows, columns
        and order are those of the swapped factorisation."""
        computed = query.computed
        computed_aliases = {column.alias for column in computed}
        kept = (
            set(query.projection)
            if query.projection is not None
            else set(query.group_by) or None
        )
        if kept is not None:
            kept |= {
                key.attribute
                for key in query.order_by
                if key.attribute not in computed_aliases
            }
            for column in computed:
                kept |= set(column.source_attributes)
            if not kept:
                # Attribute-free output: every computed column is
                # constant, so set semantics yield at most one row.
                row = tuple(c.expression.evaluate({}) for c in computed)
                return Relation(
                    [c.alias for c in computed],
                    [] if fact.is_empty() else [row],
                    name=query.name or "result",
                )
            fact = _project_to(fact, kept)
        if self.output == "factorised":
            if any(
                key.attribute in computed_aliases for key in query.order_by
            ):
                raise QueryError(
                    "ordering by a computed column is not supported in "
                    "factorised output; use the flat fdb engine instead"
                )
            schema = (
                tuple(query.projection)
                if query.projection is not None
                else tuple(fact.schema())
            ) + tuple(column.alias for column in computed)
            return FactorisedResult(
                fact,
                schema,
                order=query.order_by,
                limit=query.limit,
                computed=computed,
            )
        alias_keys = any(
            key.attribute in computed_aliases for key in query.order_by
        )
        # Ordering by a computed alias cannot ride the factorisation:
        # enumerate unordered, compute, sort the materialised rows.
        order = () if alias_keys else normalise_order(query.order_by)
        if order and merged is None and not supports_order(fact.ftree, order):
            for child in restructure_for_order(fact.ftree, order):
                fact = ops.swap(fact, child)
        if query.projection is not None:
            base_schema = list(query.projection)
        elif merged is not None:
            base_schema = ops.swap_tree(fact.ftree, merged).attribute_names()
        else:
            base_schema = fact.schema()
        out_schema = base_schema + [c.alias for c in computed]
        rows: Iterable[tuple]
        if computed:
            columns, shape = _computed_shaper(base_schema, computed)
            rows = _distinct(
                shape(row)
                for row in chain.from_iterable(iter_blocks(fact, order, columns))
            )
        else:
            rows = chain.from_iterable(iter_blocks(fact, order, base_schema))
        if alias_keys:
            rows = sort_rows(rows, out_schema, query.order_by)
        if query.limit is not None:
            rows = islice(rows, query.limit)
        return Relation.adopt(out_schema, _drain(rows), name=query.name or "result")


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------
def expand_functions(
    specs: Sequence[AggregateSpec],
) -> tuple[tuple[str, "str | None"], ...]:
    """Query aggregates as γ components, avg expanded to sum+count.

    Components are deduplicated so shared counts are computed once
    (Section 3.2.4).  Expression aggregates appear as components over
    their expression tree (``("sum", col("a") * col("b"))``); the
    evaluators of :mod:`repro.core.aggregates` distribute them over the
    factorisation.
    """
    components: list[tuple[str, str | None]] = []

    def want(component: tuple[str, str | None]) -> None:
        if component not in components:
            components.append(component)

    for spec in specs:
        if spec.function == "count":
            want(("count", None))
        elif spec.function == "avg":
            want(("sum", spec.attribute))
            want(("count", None))
        else:
            want((spec.function, spec.attribute))
    return tuple(components)


def _distinct(rows: Iterable[tuple]) -> Iterator[tuple]:
    """π is set semantics: a non-injective expression can map distinct
    source tuples to equal output rows."""
    seen: set[tuple] = set()
    for row in rows:
        if row not in seen:
            seen.add(row)
            yield row


def _group_sources(functions, group: Iterable[str]) -> set[str]:
    """Grouping attributes that some component aggregates over."""
    return {
        attr
        for _, target in functions
        for attr in target_attributes(target)
        if attr in group
    }


def _needs_contexts(functions, group: Sequence[str]) -> bool:
    """Whether the components must be evaluated one group at a time:
    scalar expressions are distributed by the recursive evaluators, and
    an aggregate over a grouping attribute reads the group's own value."""
    return bool(_group_sources(functions, group)) or any(
        isinstance(target, Expr) for _, target in functions
    )


def _context_rows(
    query: Query, fact: Factorisation, functions, order, stats
) -> Iterator[tuple]:
    """Group rows through the per-context evaluators."""
    evaluator = agg.CachedEvaluator(stats=stats)
    finalise = _finaliser(query.aggregates, functions)
    sources = _group_sources(functions, query.group_by)
    for assignment, leftovers in iter_group_contexts(
        fact, query.group_by, order
    ):
        if agg.forest_is_empty(leftovers):
            continue  # a drained group context: no tuples, no row
        components = _context_components(
            functions, leftovers, sources, assignment, evaluator, stats
        )
        yield tuple([assignment[g] for g in query.group_by]) + finalise(
            components
        )


def _context_components(
    functions, forest: list, sources, assignment: dict, evaluator, stats
) -> tuple:
    """Component tuple of one group context's (non-empty) leftovers."""
    if not sources:
        return evaluator.components(functions, forest)
    # An aggregate over a grouping attribute (SUM(g) ... GROUP BY g): the
    # group's fixed value joins the forest as a one-entry fragment,
    # fresh per context, so the cache is bypassed.
    return agg.evaluate_components(
        functions, forest + _group_value_fragments(sources, assignment), stats
    )


def _assign_expression_selections(
    query: Query,
    schemas: dict[str, Sequence[str]],
    renames: dict[str, dict[str, str]],
) -> dict[str, list]:
    """Map each expression selection to the one input relation owning
    all its attributes (post-rename names).

    The FDB engine evaluates these row-wise on that input before
    factorisation — a localised filter.  A condition whose attributes
    span inputs has no single carrier and is rejected.
    """
    conditions = [c for c in query.comparisons if c.is_expression]
    if not conditions:
        return {}
    post_rename = {
        name: {renames[name].get(a, a) for a in schemas[name]}
        for name in query.relations
    }
    assigned: dict[str, list] = {}
    for condition in conditions:
        attrs = set(condition.attributes)
        owners = [
            name for name in query.relations if attrs <= post_rename[name]
        ]
        if not owners:
            raise QueryError(
                f"expression selection {condition} references attributes "
                "of more than one input relation (or unknown attributes); "
                "the FDB engine evaluates expression selections per input "
                "relation"
            )
        assigned.setdefault(owners[0], []).append(condition)
    return assigned


def _comparison(condition) -> "Comparison":
    from repro.query import Comparison

    return Comparison(condition.target, condition.op, condition.value)


def _select_component(
    fact: Factorisation,
    node_name: str,
    extract: Callable[[tuple], tuple],
    condition,
) -> Factorisation:
    """HAVING on an aggregate alias: filter the final node's entries."""
    root_index, steps = fact.ftree.path_to(node_name)

    def keep(_: FNode, unions: list[CUnion]) -> Sequence[CUnion]:
        # SQL NULL semantics: a None aggregate satisfies no condition.
        live = [
            (got := extract(value)[0]) is not None and bool(condition.test(got))
            for value in level_values(unions)
        ]
        return splice_level(unions, live=live)

    return map_cunion_level(fact, root_index, steps, keep, fact.ftree)


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


def _group_value_fragments(
    attributes: Iterable[str], assignment: dict[str, Any]
) -> list:
    """One-entry fragments exposing fixed group values to the evaluators."""
    return [
        (FNode((attr,)), singleton_cunion(assignment[attr]))
        for attr in sorted(attributes)
    ]


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


def _group_path_order(query: Query) -> list[str]:
    """Order of group attributes along the linearised result path.

    Order-by attributes (that are group attributes) come first, in
    order-by order; the rest follow in group-by order.
    """
    ordered = [
        key.attribute
        for key in query.order_by
        if key.attribute in query.group_by
    ]
    for attribute in query.group_by:
        if attribute not in ordered:
            ordered.append(attribute)
    return ordered


def _linearise_group(fact: Factorisation, group_order: list[str]) -> Factorisation:
    """Make the group-by region a single path in the given order.

    For each attribute in turn: swap it upward until its parent is its
    path predecessor.  When the ascent is blocked — the attribute sits
    in a sibling branch of the path, or in a different tree of the
    forest — the independent fragment is *nested* below the path
    instead (sharing, not copying, the fragment), which is exactly the
    cross-product structure the result relation requires.
    """
    for index, name in enumerate(group_order):
        path_rank = {g: r for r, g in enumerate(group_order[:index])}
        guard = 0
        while True:
            guard += 1
            if guard > 10_000:
                raise QueryError("group linearisation did not converge")
            node = fact.ftree.node(name)
            parent = fact.ftree.parent(node)
            if index == 0:
                if parent is None:
                    break
                fact = ops.swap(fact, name)
                continue
            predecessor = group_order[index - 1]
            if parent is not None and predecessor in set(parent.all_names):
                break
            if parent is None:
                # Root of another tree: hang it below the predecessor.
                fact = ops.nest_root_under(fact, name, predecessor)
                break
            parent_path = [
                g for g in parent.all_names if g in path_rank
            ]
            if parent_path:
                # Sibling branch of the path: hop below the next path
                # attribute instead of swapping above an earlier one.
                rank = path_rank[parent_path[0]]
                fact = ops.nest_under(fact, name, group_order[rank + 1])
                continue
            fact = ops.swap(fact, name)
    return fact


def _group_path(tree: FTree, group: Sequence[str]) -> list[FNode]:
    """The linearised group region: its root and each node's group child."""
    members = set(group)
    level = [n for n in tree.roots if members.intersection(n.all_names)]
    if len(level) > 1:
        raise QueryError("group region is not linearised")
    path: list[FNode] = []
    while level:
        path.append(level[0])
        level = [
            c for c in level[0].children if members.intersection(c.all_names)
        ]
    return path


def _join_path(tree: FTree, group: Sequence[str]) -> list[FNode] | None:
    """The chain of group nodes down to the deepest one that partial
    aggregates hang below; ``None`` when they hang below several
    branches of the group region, so that no one union sees them all."""
    members = set(group)
    joins = [
        node
        for node in tree.nodes()
        if members.intersection(node.all_names)
        and not all(members.intersection(c.all_names) for c in node.children)
    ]
    if not joins:
        return []
    if not all(tree.is_ancestor(a, b) for a, b in zip(joins, joins[1:])):
        return None
    return tree.ancestors(joins[-1])[::-1] + [joins[-1]]


def _aggregated_over(tree: FTree, group: Iterable[str]) -> set[str]:
    """The attributes a final aggregate over ``tree`` aggregates away."""
    over: set[str] = set()
    for node in tree.nodes():
        if node.aggregate is not None:
            over |= set(node.aggregate.over)
        else:
            over |= {a for a in node.attributes if a not in group}
    return over


def _aggregate_leaf(
    functions: Sequence[tuple], over: Iterable[str], value: "tuple | None"
) -> Factorisation:
    """A one-node factorisation: the aggregate ``value`` (``None``: ∅)."""
    name = fresh_aggregate_name("final")
    node = FNode(
        AggregateAttribute(tuple(functions), frozenset(over), name),
        (),
        {f"__dep_final_{name}"},
    )
    values = [] if value is None else [value]
    return Factorisation(FTree([node]), [CUnion(values, ())])


@kernels.timed("group_output")
def _fold_partials(
    fact: Factorisation,
    group: Sequence[str],
    path: Sequence[FNode],
    functions: Sequence[tuple[str, str | None]],
) -> tuple[Factorisation, str]:
    """Fold the partial aggregates below the group region into one leaf.

    ``path`` is a chain of group nodes from a root down; every fragment
    that is not a group node hangs off it or is a root of its own.  The
    output stage's γ is the f-plan's: the fragments are nested (shared
    by reference, never copied) down to the node where the last of them
    joins the path, one γ there combines them per union — a column
    pass over all its entries, dropping the groups left without tuples
    — and the resulting leaf is nested on to the end of ``path``, since
    the aggregate depends on every attribute of the path.  Group nodes
    off the path stay as they are.
    """
    members = set(group)

    def partials(nodes: Iterable[FNode]) -> list[str]:
        return [n.name for n in nodes if not members.intersection(n.all_names)]

    names = [node.name for node in path]
    loose = partials(fact.ftree.roots)
    hook = max((d for d, n in enumerate(path) if partials(n.children)), default=-1)
    if hook < 0 and not loose:
        # Nothing hangs below the groups: each is one tuple.
        unit = agg.evaluate_components(functions, [])
        leaf = _aggregate_leaf(functions, (), unit)
        fact, name = ops.product(fact, leaf), leaf.ftree.roots[0].name
    else:
        name = fresh_aggregate_name("final")
        if hook >= 0:
            for root in loose:
                fact = ops.nest_root_under(fact, root, names[hook])
            for depth in range(hook):
                for partial in partials(fact.ftree.node(names[depth]).children):
                    fact = ops.nest_under(fact, partial, names[depth + 1])
            loose = partials(fact.ftree.node(names[hook]).children)
        fact = ops.apply_aggregation(
            fact, names[hook] if hook >= 0 else None, loose, functions, name
        )
    if hook < 0 and path:
        fact = ops.nest_root_under(fact, name, names[-1])
    for depth in range(max(hook, 0), len(path) - 1):
        fact = ops.nest_under(fact, name, names[depth + 1])
    # One shared key keeps the path a path under later swaps.
    tied = set(names) | {name}
    key = f"__dep_final_{name}"
    tree = fact.ftree.map_nodes(
        lambda n: n.with_keys(n.keys | {key}) if n.name in tied else n
    )
    return Factorisation(tree, fact.roots), name


def _fold_contexts(
    fact: Factorisation,
    group_order: Sequence[str],
    path: Sequence[FNode],
    functions: Sequence[tuple],
    stats: "agg.ExpressionStats | None" = None,
) -> tuple[Factorisation, str]:
    """:func:`_fold_partials` for components that γ cannot batch: one
    evaluator call per deepest group context of the linearised path,
    with the values of the grouping attributes along it at hand."""
    group_set = set(group_order)
    over = _aggregated_over(fact.ftree, group_set)
    sources = _group_sources(functions, group_set)
    evaluator = agg.CachedEvaluator(stats=stats)
    assignment: dict[str, Any] = {}

    def is_group(node: FNode) -> bool:
        return bool(group_set.intersection(node.all_names))

    def rebuild(depth: int, union: CUnion, pending: list) -> CUnion:
        node = path[depth]
        held = [
            (child, col)
            for child, col in zip(node.children, union.children)
            if not is_group(child)
        ]
        fixed = [a for a in node.attributes if a in sources]
        down = (
            union.children[node.children.index(path[depth + 1])]
            if depth + 1 < len(path)
            else None
        )
        values, below = [], []
        for i, value in enumerate(union.values):
            assignment.update(dict.fromkeys(fixed, value))
            forest = pending + [(n, col[i]) for n, col in held]
            if down is not None:
                sub = rebuild(depth + 1, down[i], forest)
                if not sub.values:
                    continue
            elif agg.forest_is_empty(forest):
                continue  # drained group context: contributes no row
            else:
                found = _context_components(
                    functions, forest, sources, assignment, evaluator, stats
                )
                sub = CUnion([found], ())
            values.append(value)
            below.append(sub)
        return CUnion(values, (below,))

    items = list(zip(fact.ftree.roots, fact.roots))
    free = [item for item in items if not is_group(item[0])]
    if not path:
        leaf = _aggregate_leaf(
            functions, over, evaluator.components(functions, free)
        )
        return leaf, leaf.ftree.roots[0].name
    leaf = _aggregate_leaf(functions, over, None).ftree.roots[0]
    root_union = next(union for node, union in items if node is path[0])
    node = leaf
    for upper in reversed(path):
        node = FNode(upper.attributes, (node,), upper.keys | leaf.keys)
    return (
        Factorisation(FTree([node]), [rebuild(0, root_union, free)]),
        leaf.name,
    )


def _project_to(fact: Factorisation, kept: set[str]) -> Factorisation:
    """Remove every attribute outside ``kept`` (projection, set semantics).

    Unneeded leaves are removed directly.  An unneeded *internal* node is
    sunk by promoting one of its children; picking the deepest unneeded
    node guarantees its children are all needed, so its depth strictly
    grows until it becomes a removable leaf (termination).
    """
    guard = 0
    while True:
        guard += 1
        if guard > 100_000:
            raise QueryError("projection did not converge")
        deepest: FNode | None = None
        deepest_depth = -1
        acted = False
        for node in fact.ftree.nodes():
            if node.is_aggregate:
                continue
            extra = [a for a in node.attributes if a not in kept]
            if not extra:
                continue
            if len(node.attributes) > len(extra):
                # Mixed class: drop the unneeded names only (free).
                for attribute in extra:
                    fact = ops.remove_class_attribute(fact, attribute)
                acted = True
                break
            if not node.children:
                fact = ops.remove_leaf(fact, node.name)
                acted = True
                break
            depth = fact.ftree.depth(node)
            if depth > deepest_depth:
                deepest, deepest_depth = node, depth
        if acted:
            continue
        if deepest is None:
            return fact
        fact = ops.swap(fact, deepest.children[0].name)
