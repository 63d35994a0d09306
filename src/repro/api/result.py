"""The first-class query result of the unified session API.

A :class:`Result` bundles everything one execution produced: the rows
(materialised lazily when the engine returned a factorisation), the
factorised representation when available, the chosen f-plan, explain
text, and wall-clock/size statistics.  It replaces the old pattern of
reading ``FDBEngine.last_plan`` after ``execute`` — each result carries
the plan that produced *it*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.core.output import FactorisedResult
from repro.relational.relation import Relation

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.fplan import ExecutionTrace, FPlan
    from repro.query import Query


@dataclass(frozen=True)
class ResultStats:
    """Wall-clock and size statistics of one execution.

    ``rows`` is ``None`` while a factorised result has not been
    flattened — counting would force full enumeration, defeating the
    succinctness of the representation.  ``len(result)`` materialises
    and counts explicitly.
    """

    engine: str
    seconds: float
    rows: int | None
    singletons: int | None = None  # factorised size, when available

    def __str__(self) -> str:
        text = f"{self.engine}: {self.seconds * 1000:.1f} ms"
        if self.rows is not None:
            text += f", {self.rows} rows"
        if self.singletons is not None:
            text += f", {self.singletons} singletons"
        return text


class Result:
    """Unified query result, independent of the engine that produced it.

    Attributes
    ----------
    query:
        the :class:`repro.query.Query` that was executed;
    engine:
        display name of the backend (``"FDB"``, ``"RDB-sort"``, ...);
    plan:
        the compiled :class:`repro.core.fplan.FPlan` (FDB backends only);
    trace:
        the per-step :class:`~repro.core.fplan.ExecutionTrace`, if any;
    factorised:
        the :class:`~repro.core.output.FactorisedResult` when the engine
        produced factorised output, else ``None``;
    lifecycle:
        the :class:`repro.plan.prepared.LifecycleInfo` of the execution
        (plan/result cache outcomes and prepare-vs-run timings) when the
        result came through the prepared-query lifecycle, else ``None``;
    span:
        the finished root :class:`repro.obs.Span` of this execution when
        observability was enabled (set by the prepared-query lifecycle),
        else ``None``.  ``explain()`` renders it as a tree;
        :meth:`trace_json` exports it.
    """

    def __init__(
        self,
        query: "Query",
        engine: str,
        *,
        relation: Relation | None = None,
        factorised: FactorisedResult | None = None,
        plan: "FPlan | None" = None,
        trace: "ExecutionTrace | None" = None,
        explain_fn: Callable[[], str] | None = None,
        seconds: float = 0.0,
        maintenance=None,
        lifecycle=None,
    ) -> None:
        if relation is None and factorised is None:
            raise ValueError("a Result needs a relation or a factorisation")
        self.query = query
        self.engine = engine
        self.plan = plan
        self.trace = trace
        self.seconds = seconds
        self.factorised = factorised
        self.maintenance = maintenance
        self.lifecycle = lifecycle
        self._relation = relation
        self._explain_fn = explain_fn
        self._explain_text: str | None = None
        self.span = None  # root repro.obs.Span, attached post-construction

    # ------------------------------------------------------------------
    # Rows
    # ------------------------------------------------------------------
    def to_relation(self) -> Relation:
        """The flat result, materialising a factorisation on first use."""
        if self._relation is None:
            assert self.factorised is not None
            self._relation = self.factorised.to_relation(
                self.query.name or "result"
            )
        return self._relation

    @property
    def relation(self) -> Relation:
        return self.to_relation()

    @property
    def schema(self) -> tuple[str, ...]:
        if self._relation is not None:
            return self._relation.schema
        assert self.factorised is not None
        return self.factorised.output_schema

    @property
    def rows(self) -> list[tuple]:
        return self.to_relation().rows

    def __iter__(self) -> Iterator[tuple]:
        # Stream straight from the factorisation when the flat form has
        # not been materialised (constant-delay enumeration).
        if self._relation is None and self.factorised is not None:
            return self.factorised.iter_tuples()
        return iter(self.to_relation().rows)

    def __len__(self) -> int:
        return len(self.to_relation())

    def first(self) -> tuple | None:
        """The first result tuple, or ``None`` on an empty result."""
        for row in self:
            return row
        return None

    def as_dicts(self) -> list[dict[str, Any]]:
        return self.to_relation().as_dicts()

    def pretty(self, limit: int = 20) -> str:
        return self.to_relation().pretty(limit=limit)

    # ------------------------------------------------------------------
    # Comparison (cross-engine parity checks)
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, Result):
            other = other.to_relation()
        elif isinstance(other, FactorisedResult):
            other = other.to_relation()
        if isinstance(other, Relation):
            return self.to_relation() == other
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # mutable container

    # ------------------------------------------------------------------
    # Plan and stats
    # ------------------------------------------------------------------
    def explain(self) -> str:
        """The engine's explain text for this query (computed lazily).

        Executions that evaluated scalar expressions append provenance
        lines: which aliases were computed from which expression, and —
        for the factorised engine — whether evaluation distributed over
        independent branches or fell back to localised flattening.
        """
        if self._explain_text is None:
            if self._explain_fn is not None:
                self._explain_text = self._explain_fn()
            else:
                self._explain_text = f"{self.engine}: {self.query}"
            provenance = self._expression_provenance()
            if provenance:
                self._explain_text += "\n" + "\n".join(provenance)
        text = self._explain_text
        if self.lifecycle is not None:
            text += "\n" + self.lifecycle.describe()
        if self.maintenance is not None:
            # Appended outside the cache: the live stats keep counting.
            text += f"\nmaintenance: {self.maintenance.describe()}"
        optimizer = self._optimizer_provenance(text)
        if optimizer:
            text += "\n" + "\n".join(optimizer)
        if self.trace is not None and getattr(self.trace, "seconds", None):
            # EXPLAIN ANALYZE: per-step wall time and intermediate sizes.
            text += "\n" + self.trace.describe()
        if self.span is not None:
            text += (
                f"\nspan tree (trace {self.span.trace_id}):\n"
                + self.span.render()
            )
        return text

    def trace_json(self) -> str | None:
        """The execution's span tree as a JSON document, or ``None``
        when observability was disabled for this query."""
        if self.span is None:
            return None
        import json

        return json.dumps(self.span.to_dict(), indent=2)

    @property
    def expression_stats(self):
        """The engine's :class:`~repro.core.aggregates.ExpressionStats`
        for this execution, or ``None`` (non-FDB engines, or queries
        without expressions)."""
        return getattr(self.trace, "expression_stats", None)

    def _optimizer_provenance(self, existing: str) -> list[str]:
        """Estimated vs. observed cost lines for the executed plan.

        The engine stamps the trace with the optimiser's provenance
        (strategy, estimated result size in singletons, statistics
        sources, the search's fallback); the trace's per-step sizes give
        the observed side.  Engines whose explain text already names the
        optimiser, the statistics sources and the fallback (the FDB
        compile describe) contribute only the estimated-vs-observed line
        here.
        """
        provenance = getattr(self.trace, "provenance", None)
        if not provenance:
            return []
        lines = []
        if "optimizer:" not in existing:
            lines.append(f"optimizer: {provenance['strategy']}")
        estimated = provenance.get("estimated_size")
        sizes = getattr(self.trace, "sizes", None) or []
        if estimated is not None:
            observed = (
                f", observed {sizes[-1]} (peak {max(sizes)})" if sizes else ""
            )
            lines.append(
                f"cost: estimated {estimated:.0f} singletons{observed}"
            )
        sources = provenance.get("stats")
        if sources and "statistics:" not in existing:
            rendered = ", ".join(
                f"{name} ({source}, {rows} rows)"
                for name, (source, rows) in sources.items()
            )
            lines.append(f"statistics: {rendered}")
        fallback = provenance.get("fallback")
        if fallback and "fallback:" not in existing:
            lines.append(f"fallback: {fallback}")
        return lines

    def _expression_provenance(self) -> list[str]:
        lines: list[str] = []
        for spec in self.query.aggregates:
            if spec.is_expression:
                lines.append(
                    f"expression: {spec.alias} ← "
                    f"{spec.function}({spec.expression})"
                )
        for column in self.query.computed:
            lines.append(f"expression: {column.alias} ← {column.expression}")
        for condition in self.query.comparisons:
            if condition.is_expression:
                lines.append(f"expression: σ[{condition}]")
        stats = self.expression_stats
        if lines and stats is not None:
            lines.append(f"expression evaluation: {stats.describe()}")
        return lines

    @property
    def stats(self) -> ResultStats:
        return ResultStats(
            engine=self.engine,
            seconds=self.seconds,
            rows=len(self._relation) if self._relation is not None else None,
            singletons=(
                self.factorised.size() if self.factorised is not None else None
            ),
        )

    def __repr__(self) -> str:
        shape = (
            "factorised"
            if self.factorised is not None and self._relation is None
            else f"{len(self.to_relation())} rows"
        )
        return (
            f"Result(engine={self.engine!r}, {shape}, "
            f"seconds={self.seconds:.4f})"
        )
