"""RDB: the flat relational engine used as the paper's baseline.

This is the engine of Experiment 5: joins, then selections, then
grouping+aggregation (by sorting or hashing), then ordering and limit.
It deliberately performs *no* partial aggregation — the paper observes
that SQLite and PostgreSQL both lack that optimisation, which is what
the manually optimised plans of Experiment 2 (see
:mod:`repro.relational.plans`) add back.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.query import Query, QueryError
from repro.relational.aggregate import group_aggregate, value_getter
from repro.relational.operators import multiway_join
from repro.relational.relation import Relation
from repro.relational.sort import limit_rows, sort_rows

if TYPE_CHECKING:  # pragma: no cover - avoids a circular import at runtime
    from repro.database import Database


class RDBEngine:
    """Executes :class:`repro.query.Query` over flat relations.

    Parameters
    ----------
    grouping:
        ``"sort"`` models SQLite (sort-based grouping, the RDB baseline
        of the paper); ``"hash"`` models PostgreSQL (hash aggregation).
    join_method:
        physical join operator, ``"hash"`` or ``"merge"``.
    """

    name = "RDB"

    def __init__(self, grouping: str = "sort", join_method: str = "hash") -> None:
        if grouping not in ("sort", "hash"):
            raise ValueError(f"unknown grouping method {grouping!r}")
        self.grouping = grouping
        self.join_method = join_method

    # ------------------------------------------------------------------
    # Execution pipeline
    # ------------------------------------------------------------------
    def execute(self, query: Query, database: "Database") -> Relation:
        """Run the full pipeline and return the result relation."""
        joined = self.join_inputs(query, database)
        filtered = self.apply_selections(query, joined)
        shaped = self.apply_aggregation_or_projection(query, filtered)
        return self.apply_order_and_limit(query, shaped)

    # Each stage is public so plans/benchmarks can time them separately.
    def join_inputs(self, query: Query, database: "Database") -> Relation:
        """Materialise σ-free join of the query's input relations."""
        inputs = [database.flat(name) for name in query.relations]
        if len(inputs) == 1:
            return inputs[0]
        return multiway_join(inputs, method=self.join_method)

    def apply_selections(self, query: Query, relation: Relation) -> Relation:
        """Equality and constant selections, in one scan.

        Expression selections (``price * qty > 100``) evaluate their
        scalar expression row-wise in the same scan.
        """
        if not query.equalities and not query.comparisons:
            return relation
        eq_pairs = [
            (relation.position(eq.left), relation.position(eq.right))
            for eq in query.equalities
        ]
        cmp_tests = [
            (value_getter(relation, c.attribute), c)
            for c in query.comparisons
        ]
        rows = [
            row
            for row in relation.rows
            if all(row[i] == row[j] for i, j in eq_pairs)
            and all(c.test(get(row)) for get, c in cmp_tests)
        ]
        return Relation(relation.schema, rows, name=f"σ({relation.name})")

    def apply_aggregation_or_projection(
        self, query: Query, relation: Relation
    ) -> Relation:
        """The ϖ (or π) stage, plus computed columns, HAVING, DISTINCT."""
        if query.aggregates:
            result = group_aggregate(
                relation, query.group_by, query.aggregates, method=self.grouping
            )
            if query.having:
                result = self.apply_having(query, result)
            return result
        if query.computed:
            return self._apply_computed(query, relation)
        if query.projection is not None:
            return relation.project(query.projection, dedup=True)
        if query.distinct:
            return relation.distinct()
        return relation

    def apply_order_and_limit(self, query: Query, relation: Relation) -> Relation:
        """The o_L and λ_k stages."""
        rows = relation.rows
        if query.order_by:
            self._validate_order(query, relation.schema)
            rows = sort_rows(rows, relation.schema, query.order_by)
        if query.limit is not None:
            rows = limit_rows(rows, query.limit)
        if rows is relation.rows:
            return relation
        return Relation(relation.schema, rows, name=relation.name)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _apply_computed(self, query: Query, relation: Relation) -> Relation:
        """Projection with computed output columns, set semantics."""
        base = list(query.projection or ())
        positions = [relation.position(name) for name in base]
        getters = [
            value_getter(relation, column.expression)
            for column in query.computed
        ]
        schema = query.output_schema
        seen: set[tuple] = set()
        rows: list[tuple] = []
        for row in relation.rows:
            shaped = tuple(row[p] for p in positions) + tuple(
                get(row) for get in getters
            )
            if shaped in seen:
                continue
            seen.add(shaped)
            rows.append(shaped)
        return Relation(schema, rows, name=f"π({relation.name})")

    def apply_having(self, query: Query, relation: Relation) -> Relation:
        positions = [
            (relation.position(h.target), h) for h in query.having
        ]
        rows = [
            row
            for row in relation.rows
            # SQL NULL semantics: a None aggregate satisfies no condition.
            if all(row[p] is not None and h.test(row[p]) for p, h in positions)
        ]
        return Relation(relation.schema, rows, name=relation.name)

    def _validate_order(self, query: Query, schema: Sequence[str]) -> None:
        available = set(schema)
        for key in query.order_by:
            if key.attribute not in available:
                raise QueryError(
                    f"order-by attribute {key.attribute!r} is not in the "
                    f"result schema {tuple(schema)!r}"
                )
