"""Live query results, kept fresh by additive deltas.

``session.watch(query)`` returns a :class:`LiveView`: a maintained
result that keeps, per group, the component tuple the engine's γ folds
(Section 3: COUNT, SUM and the parts of AVG are additive over ⊎) plus a
support COUNT.  The components come from one FDB plan: the query
without HAVING, ORDER BY and LIMIT, over a one-relation database
holding the target as the catalogue does — a view's factorisation, so
its plan starts from the view's f-tree, or a flat relation's rows.
Each change runs through that plan (a view's as the factorised halves
of its :class:`~repro.ivm.maintain.ViewDelta`, whose rows are never
enumerated) and the result is folded in — COUNT and SUM add with the
change's sign, MIN and MAX combine on insertion and mark their group
for a rerun of the same plan when a deletion may have removed the
extremum (over a view's whole factorisation, or over the rows of a
flat target's marked groups).  The view synchronises lazily against
the database's version stamp and change log, so mutations through
*any* path (the session, the database, SQL statements) are observed.

Maintenance evidence is carried on the returned
:class:`repro.api.result.Result`: ``result.explain()`` shows the
:class:`~repro.ivm.stats.MaintenanceStats`, including the
incremental-vs-recompute ratio and the factorisation rebuild count.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import repeat
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Iterator, NamedTuple

from repro.core.aggregates import empty_aggregate_components
from repro.core.build import factorise
from repro.core.engine import FDBEngine
from repro.core.enumerate import iter_columns
from repro.core.output import finaliser, gamma_components
from repro.database import Database
from repro.ivm.stats import MaintenanceStats
from repro.obs import clock
from repro.query import AggregateSpec, Query, QueryError
from repro.relational.engine import RDBEngine
from repro.relational.relation import Relation

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.api.result import Result
    from repro.api.session import Session
    from repro.core.frep import Factorisation
    from repro.core.ftree import FTree
    from repro.database import LogRecord

#: The alias of the support COUNT added to the component plan.
_SUPPORT = "__support"


class _Plan(NamedTuple):
    """The compiled component plan and what it reads."""

    engine: FDBEngine
    compiled: Any
    query: Query  # the component query: no HAVING/ORDER BY/LIMIT
    functions: tuple  # γ's components, the support COUNT included
    store: dict  # the input catalogue's dict the plan reads the target from
    tree: "FTree | None"  # the f-tree a factorised target was compiled over


class LiveView:
    """A maintained query result (see the module docstring).

    Incremental maintenance applies when the query aggregates over a
    single input relation that the FDB engine plans; everything else
    falls back to re-running the query (counted in :attr:`stats` as a
    recompute).  HAVING, ORDER BY and LIMIT are re-applied to the
    finalised groups on every refresh by the RDB stages — they are
    result-sized, not data-sized.
    """

    def __init__(
        self, session: "Session", query: Query, engine=None
    ) -> None:
        self._session = session
        self._query = query
        self._engine = engine
        self.stats = MaintenanceStats()
        #: Group key -> γ's component tuple (the support COUNT included);
        #: only groups with support are kept.
        self._groups: dict[tuple, tuple] = {}
        self._dirty: set[tuple] = set()
        self._result: "Result | None" = None
        self._version = session.database.version
        #: The component plan's input: a one-relation database whose
        #: relation each fold replaces (never logged or versioned).
        self._input = Database()
        self._plan: "_Plan | None" = None
        self._seconds = 0.0
        start = clock.now()
        self._result = self._recompute()
        self._seconds = clock.now() - start

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------
    @property
    def query(self) -> Query:
        return self._query

    @property
    def result(self) -> "Result":
        """The current result, synchronising against pending changes."""
        self._sync()
        assert self._result is not None
        return self._result

    @property
    def rows(self) -> list[tuple]:
        return self.result.rows

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.result)

    def __len__(self) -> int:
        return len(self.result)

    def pretty(self, limit: int = 20) -> str:
        return self.result.pretty(limit=limit)

    def explain(self) -> str:
        return self.result.explain()

    def refresh(self) -> "Result":
        """Force a full recomputation (and count it as one)."""
        self.stats.recomputes += 1
        self._result = self._recompute()
        self._version = self._session.database.version
        return self._result

    def __repr__(self) -> str:
        mode = "incremental" if self._plan is not None else "recompute"
        return f"LiveView({self._query}, mode={mode}, {self.stats})"

    # ------------------------------------------------------------------
    # The component plan
    # ------------------------------------------------------------------
    def _compile(
        self, source: "Relation | Factorisation | None" = None
    ) -> "_Plan | None":
        """The component plan over ``source`` (by default the target as
        the database holds it), or None when the query is not
        maintained incrementally.

        A factorised target's plan starts from its f-tree, so it runs on
        the view's own factorisation and on the factorised halves of its
        deltas.
        """
        query = self._query
        if not query.aggregates or len(query.relations) != 1:
            return None
        target = query.relations[0]
        try:
            schema = self._session.database.schema(target)
        except KeyError:
            return None
        if not query.referenced_attributes() <= set(schema):
            return None
        if source is None:
            source = self._source()
        self._input.relations.clear()
        self._input.factorised.clear()
        if isinstance(source, Relation):
            store, tree = self._input.relations, None
        else:
            store, tree = self._input.factorised, source.ftree
        store[target] = source
        engine = FDBEngine(output="factorised", optimizer="greedy")
        try:
            components = replace(
                query,
                aggregates=query.aggregates + (AggregateSpec("count", None, _SUPPORT),),
                having=(),
                order_by=(),
                limit=None,
            )
            compiled = engine.compile(components, self._input)
        except QueryError:
            return None
        functions, _ = gamma_components(components.aggregates, components.group_by)
        return _Plan(engine, compiled, components, functions, store, tree)

    def _source(self) -> "Relation | Factorisation":
        """The target as the database holds it: its factorisation if it
        has one (the FDB engine reads that), else its flat rows."""
        database = self._session.database
        target = self._query.relations[0]
        fact = database.get_factorised(target)
        return database.flat(target) if fact is None else fact

    def _components(self, source: "Relation | Factorisation") -> dict[tuple, tuple]:
        """γ's component tuple per group of ``source`` that has support."""
        plan = self._plan
        if plan.tree is not None and source.ftree is not plan.tree:
            # A rebuild gave the target a new f-tree; the plan follows.
            plan = self._plan = self._compile(source)
        query = plan.query
        plan.store[query.relations[0]] = source
        result, _, _ = plan.engine.execute_planned(plan.compiled, query, self._input)
        fact, leaf = result.factorisation, result.aggregate_node
        cut = len(query.group_by)
        support = plan.functions.index(("count", None))
        groups: dict[tuple, tuple] = {}
        for columns in iter_columns(fact, (), (*query.group_by, leaf)):
            keys = zip(*columns[:cut]) if cut else repeat(())
            groups.update(
                (key, value) for key, value in zip(keys, columns[cut]) if value[support]
            )
        return groups

    # ------------------------------------------------------------------
    # Synchronisation
    # ------------------------------------------------------------------
    def _sync(self) -> None:
        database = self._session.database
        if database.version == self._version:
            return
        start = clock.now()
        records = database.changes_since(self._version)
        if (
            records is None
            or self._plan is None
            or not all(map(self._apply_record, records))
        ):
            self.refresh()
        else:
            if self._dirty:
                self._rerun_dirty()
            self._version = database.version
            self._result = self._result_from_groups()
        self._seconds = clock.now() - start

    def _apply_record(self, record: "LogRecord") -> bool:
        """Fold one log record into the group state; False = bail out."""
        target = self._query.relations[0]
        if record.kind == "register":
            return record.relation != target
        tree = self._plan.tree
        delta = record.view_deltas.get(target)
        if tree is not None and delta is not None and not delta.rebuilt:
            # The view's own delta, as factorised halves over its f-tree.
            inserted, deleted = delta.inserted, delta.deleted
            self.stats.nodes_touched += delta.nodes_touched
        elif record.relation == target:
            # A direct change's rows are exact even when the view was
            # rebuilt: one-row factorisations fit any f-tree.
            columns = record.columns
            if not record.rows:
                rows = ()
            elif tree is None:
                rows = (Relation.adopt(columns, list(record.rows)),)
            else:
                rows = tuple(
                    factorise(Relation.adopt(columns, [row]), tree)
                    for row in record.rows
                )
            inserted, deleted = (rows, ()) if record.kind == "insert" else ((), rows)
        elif delta is not None:
            return False  # a routed change that rebuilt the view
        else:
            return True  # unrelated change
        self.stats.deltas_applied += 1
        self.stats.incremental += 1
        self.stats.rows_inserted += sum(map(_size, inserted))
        self.stats.rows_deleted += sum(map(_size, deleted))
        for source in inserted:
            self._fold(source, +1)
        for source in deleted:
            self._fold(source, -1)
        return True

    # ------------------------------------------------------------------
    # Additive group maintenance
    # ------------------------------------------------------------------
    def _fold(self, source: "Relation | Factorisation", sign: int) -> None:
        """Fold the components of ``source``'s rows into the groups with
        ``sign``."""
        functions = self._plan.functions
        support = functions.index(("count", None))
        for key, delta in self._components(source).items():
            self.stats.groups_touched += 1
            current = self._groups.get(key)
            if current is None:
                if sign > 0:
                    self._groups[key] = delta
                continue
            merged = []
            for (function, _), mine, theirs in zip(functions, current, delta):
                if function in ("count", "sum"):
                    merged.append(mine + sign * theirs)
                elif sign > 0:
                    merged.append(min(mine, theirs) if function == "min" else max(mine, theirs))
                else:
                    if theirs == mine:  # the extremum may have left
                        self._dirty.add(key)
                    merged.append(mine)
            if merged[support] > 0:
                self._groups[key] = tuple(merged)
            else:
                del self._groups[key]
                self._dirty.discard(key)

    def _rerun_dirty(self) -> None:
        """Rerun the plan over the target for the dirty groups: a view's
        whole factorisation, or the rows of a flat target's dirty groups."""
        source = self._source()
        group = self._query.group_by
        if isinstance(source, Relation) and group:
            key = itemgetter(*map(source.schema.index, group))
            dirty = {k[0] for k in self._dirty} if len(group) == 1 else self._dirty
            rows = [row for row in source.rows if key(row) in dirty]
            source = Relation.adopt(source.schema, rows)
        fresh = self._components(source)
        for key in self._dirty:
            if key in self._groups and key in fresh:
                self._groups[key] = fresh[key]
        self._dirty.clear()

    # ------------------------------------------------------------------
    # Full builds and results
    # ------------------------------------------------------------------
    def _recompute(self) -> "Result":
        self._plan = self._compile()
        if self._plan is None:
            return self._run_query()
        self._groups = self._components(self._source())
        self._dirty = set()
        return self._result_from_groups()

    def _result_from_groups(self) -> "Result":
        from repro.api.result import Result

        query = self._query
        functions = self._plan.functions
        groups = self._groups
        if not query.group_by and not groups:
            # Every engine returns one grand-total row over an empty
            # input: COUNT is 0, SUM/AVG/MIN/MAX are NULL; match them.
            groups = {(): empty_aggregate_components(functions)}
        keys = sorted(groups)
        key_columns = list(zip(*keys))
        values = finaliser(query.aggregates, functions, query.group_by)(
            [groups[key] for key in keys], key_columns
        )
        relation = Relation.adopt(
            query.output_schema,
            list(zip(*key_columns, *values)),
            name=query.name or "live",
        )
        rdb = RDBEngine()
        if query.having:
            relation = rdb.apply_having(query, relation)
        relation = rdb.apply_order_and_limit(query, relation)
        backend = self._session._resolve(self._engine)
        return Result(
            query,
            f"live[{backend.name}]",
            relation=relation,
            explain_fn=self._explain_fn(backend),
            seconds=self._seconds,
            maintenance=self.stats,
        )

    def _run_query(self) -> "Result":
        result = self._session.execute(self._query, engine=self._engine)
        result.maintenance = self.stats
        return result

    def _explain_fn(self, backend):
        database = self._session.database
        query = self._query

        def explain() -> str:
            lines = [
                "live view: γ's components maintained from the change "
                "log (COUNT/SUM add with the change's sign; MIN/MAX rerun "
                "the plan for groups whose extremum was deleted)",
                backend.explain(query, database),
            ]
            return "\n".join(lines)

        return explain


def _size(source: "Relation | Factorisation") -> int:
    """The rows of one fold's input."""
    return len(source.rows) if isinstance(source, Relation) else source.tuple_count()
