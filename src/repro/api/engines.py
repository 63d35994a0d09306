"""Pluggable engine backends and the engine registry.

Every execution backend implements the small :class:`Engine` protocol —
``prepare`` (one-off data loading), the two-phase query lifecycle
``plan`` (compile a :class:`repro.query.Query` into a retained
artifact) and ``run_planned`` (execute a retained artifact against the
current data), the one-shot ``run`` composition, and ``explain``
(describe the plan without executing).  Backends are registered by
name with :func:`register_engine` and instantiated with
:func:`create_engine`, so sessions, the CLI and the benchmark harness
all select engines the same way:

====================  ====================================================
registry name         backend
====================  ====================================================
``fdb``               factorised evaluation, flat output (the paper's FDB)
``fdb-factorised``    factorised evaluation, factorised output (FDB f/o)
``fdb-parallel``      sharded parallel FDB with merge aggregation
``rdb``               flat baseline, sort-based grouping (SQLite model)
``rdb-hash``          flat baseline, hash grouping (PostgreSQL model)
``sqlite``            the real ``sqlite3``, fed generated SQL text
====================  ====================================================

Third-party backends plug in the same way::

    register_engine("my-engine", MyEngine)
    connect(db, engine="my-engine")
"""

from __future__ import annotations

import inspect
import re
import sqlite3
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

from repro.core.engine import FactorisedResult, FDBCompiled, FDBEngine
from repro.query import Query
from repro.relational.engine import RDBEngine
from repro.relational.relation import Relation
from repro.sql.generator import query_to_sql

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.fplan import ExecutionTrace, FPlan
    from repro.database import Database, LogRecord


@dataclass
class EngineRun:
    """Raw outcome of one engine execution, before ``Result`` packaging.

    Exactly one of ``relation``/``factorised`` is set; ``plan`` and
    ``trace`` are present only for backends that compile f-plans.
    """

    relation: Relation | None = None
    factorised: FactorisedResult | None = None
    plan: "FPlan | None" = None
    trace: "ExecutionTrace | None" = None


class Engine(ABC):
    """The common backend protocol of the unified session API."""

    name = "engine"

    def prepare(self, database: "Database") -> None:
        """One-off loading/warm-up, excluded from query timings."""

    @abstractmethod
    def run(self, query: Query, database: "Database") -> EngineRun:
        """Execute ``query`` against ``database`` (one-shot plan+run)."""

    def explain(self, query: Query, database: "Database") -> str:
        """Describe the evaluation strategy without executing."""
        return f"{self.name}: {query}"

    # ------------------------------------------------------------------
    # Two-phase lifecycle (plan once, run many times)
    # ------------------------------------------------------------------
    def plan(self, query: Query, database: "Database") -> Any:
        """Compile ``query`` into a retained plan artifact.

        ``query`` is the *unbound* canonical form: the artifact must
        serve every parameter binding.  The default returns ``None``
        — a backend without a separate planning stage — which
        :meth:`run_planned` interprets as "plan on the fly".
        """
        return None

    def run_planned(
        self,
        artifact: Any,
        query: Query,
        database: "Database",
        params: "Mapping[str, Any] | None" = None,
    ) -> EngineRun:
        """Execute a retained plan against the current data.

        ``query`` is the runtime (parameter-bound) form; ``params``
        carries the raw binding for backends that pass values natively
        (the sqlite backend binds them on the prepared SQL text).  The
        default ignores the artifact and runs the bound query whole.
        """
        return self.run(query, database)

    def forward(
        self, records: "Iterable[LogRecord]", database: "Database"
    ) -> bool:
        """Absorb logged mutations into prepared state.

        ``records`` are :class:`repro.database.LogRecord` entries newer
        than the version this backend last observed.  Returning False
        tells the session to re-run :meth:`prepare` instead — the safe
        default for backends whose prepared state the session cannot
        see.  Stateless backends (reading the database afresh per run)
        return True; the sqlite backend replays the row deltas on its
        live connection, and the sharded backend routes each row to its
        owning shard.
        """
        return False

    def close(self) -> None:
        """Release backend resources (worker pools, connections...).

        A closed backend must still serve queries after the next
        :meth:`prepare`; sessions call this from
        :meth:`repro.api.session.Session.close`.  The default is a
        no-op, matching stateless backends.
        """


class FDBBackend(Engine):
    """Factorised evaluation; ``output`` selects FDB vs FDB f/o."""

    def __init__(self, output: str = "flat", optimizer: str = "cost") -> None:
        self._engine = FDBEngine(output=output, optimizer=optimizer)
        self.name = "FDB" if output == "flat" else "FDB f/o"
        # Cost-based plans depend on live statistics, so the prepared-
        # query fingerprint must include the stats-cache epochs.
        self.stats_sensitive = optimizer == "cost"

    @staticmethod
    def _package(result, plan, trace) -> EngineRun:
        if isinstance(result, FactorisedResult):
            return EngineRun(factorised=result, plan=plan, trace=trace)
        return EngineRun(relation=result, plan=plan, trace=trace)

    def run(self, query: Query, database: "Database") -> EngineRun:
        return self._package(*self._engine.execute_traced(query, database))

    def plan(self, query: Query, database: "Database") -> FDBCompiled:
        """Optimise once: the f-plan is chosen from the schema-level
        input shape, so it stays valid across data mutations and
        parameter bindings."""
        return self._engine.compile(query, database)

    def run_planned(
        self,
        artifact: Any,
        query: Query,
        database: "Database",
        params: "Mapping[str, Any] | None" = None,
    ) -> EngineRun:
        if not isinstance(artifact, FDBCompiled):
            return self.run(query, database)
        return self._package(
            *self._engine.execute_planned(artifact, query, database)
        )

    def explain(self, query: Query, database: "Database") -> str:
        return self._engine.explain(query, database)

    def forward(
        self, records: "Iterable[LogRecord]", database: "Database"
    ) -> bool:
        # FDB holds no prepared copy: every run reads the (maintained)
        # factorisations and flat relations from the database.
        return True


@dataclass(frozen=True)
class RDBPlan:
    """The flat baseline's retained plan: the fixed pipeline stages.

    RDB has no cost-based optimiser — the value of planning once is
    the validated stage list (and its explain rendering), not a search.
    """

    stages: tuple[str, ...]


class RDBBackend(Engine):
    """The flat relational baseline (sort or hash grouping)."""

    def __init__(self, grouping: str = "sort", join_method: str = "hash") -> None:
        self._engine = RDBEngine(grouping=grouping, join_method=join_method)
        self.name = f"RDB-{grouping}"

    def run(self, query: Query, database: "Database") -> EngineRun:
        return EngineRun(relation=self._engine.execute(query, database))

    def plan(self, query: Query, database: "Database") -> RDBPlan:
        return RDBPlan(self._pipeline(query))

    def run_planned(
        self,
        artifact: Any,
        query: Query,
        database: "Database",
        params: "Mapping[str, Any] | None" = None,
    ) -> EngineRun:
        return self.run(query, database)

    def forward(
        self, records: "Iterable[LogRecord]", database: "Database"
    ) -> bool:
        # The flat baseline re-reads database.flat() per run (stale flat
        # copies of maintained views refresh lazily there).
        return True

    def _pipeline(self, query: Query) -> tuple[str, ...]:
        engine = self._engine
        stages = [
            f"{engine.join_method} join of ({', '.join(query.relations)})"
        ]
        conditions = [str(c) for c in query.equalities + query.comparisons]
        if conditions:
            stages.append(f"σ[{' ∧ '.join(conditions)}] in one scan")
        if query.aggregates:
            aggs = ", ".join(str(a) for a in query.aggregates)
            stages.append(
                f"{engine.grouping}-based ϖ[{', '.join(query.group_by)};"
                f" {aggs}]"
            )
        elif query.projection is not None:
            stages.append(f"π[{', '.join(query.projection)}]")
        if query.order_by:
            order = ", ".join(str(k) for k in query.order_by)
            stages.append(f"sort o[{order}]")
        if query.limit is not None:
            stages.append(f"λ{query.limit}")
        return tuple(stages)

    def explain(self, query: Query, database: "Database") -> str:
        engine = self._engine
        lines = [
            f"query: {query}",
            f"RDB pipeline (grouping={engine.grouping}, "
            f"join={engine.join_method}):",
        ]
        lines.extend(
            f"  {index}. {stage}"
            for index, stage in enumerate(self._pipeline(query), start=1)
        )
        return "\n".join(lines)


class SQLiteBackend(Engine):
    """The real ``sqlite3``, fed SQL generated from the shared AST.

    The database is loaded into an in-memory connection once per
    :class:`repro.database.Database` instance (``prepare``, like the
    paper excludes data import from timings) and reused across queries.
    """

    name = "SQLite"

    def __init__(self) -> None:
        self._connection: sqlite3.Connection | None = None
        self._database: "Database | None" = None
        self._schemas: dict[str, tuple[str, ...]] = {}

    @property
    def connection(self) -> sqlite3.Connection:
        """The live connection (for callers issuing raw SQL)."""
        if self._connection is None:
            raise RuntimeError("sqlite backend not prepared")
        return self._connection

    def prepare(self, database: "Database") -> None:
        # Always reloads: callers re-prepare after catalogue changes, and
        # the identity check in _ensure cannot see in-place mutation.
        self._connection = None
        self._database = None
        self._ensure(database)

    def close(self) -> None:
        """Close the in-memory connection; prepare() reopens it."""
        if self._connection is not None:
            self._connection.close()
        self._connection = None
        self._database = None
        self._schemas = {}

    def _ensure(self, database: "Database") -> sqlite3.Connection:
        if self._connection is None or self._database is not database:
            connection = sqlite3.connect(":memory:")
            self._schemas = {}
            for name in database.names():
                relation = database.flat(name)
                self._schemas[name] = relation.schema
                columns = ", ".join(f'"{a}"' for a in relation.schema)
                connection.execute(f'CREATE TABLE "{name}" ({columns})')
                marks = ",".join("?" * len(relation.schema))
                connection.executemany(
                    f'INSERT INTO "{name}" VALUES ({marks})', relation.rows
                )
            connection.commit()
            self._connection = connection
            self._database = database
        return self._connection

    def forward(
        self, records: "Iterable[LogRecord]", database: "Database"
    ) -> bool:
        """Replay logged row deltas on the live connection.

        Base changes and the exact per-view deltas the maintenance
        subsystem reported are translated to INSERT/DELETE statements.
        Registrations and view rebuilds are not expressible as row
        deltas, so they fall back to a full reload (return False).
        """
        if self._connection is None or self._database is not database:
            return False
        for record in records:
            if record.kind == "register":
                return False
            if any(delta.rebuilt for delta in record.view_deltas.values()):
                return False
            if record.relation not in self._schemas:
                return False
            for delta in record.view_deltas.values():
                if delta.name not in self._schemas:
                    return False
        for record in records:
            self._replay(record.relation, record.columns, record.rows,
                         record.kind == "insert")
            for delta in record.view_deltas.values():
                if delta.name == record.relation:
                    continue  # the base replay already covered it
                self._replay(delta.name, delta.schema, delta.added, True)
                self._replay(delta.name, delta.schema, delta.removed, False)
        self._connection.commit()
        return True

    def _replay(
        self,
        table: str,
        columns: "tuple[str, ...]",
        rows: "tuple[tuple, ...]",
        insert: bool,
    ) -> None:
        if not rows:
            return
        schema = self._schemas[table]
        positions = [columns.index(a) for a in schema]
        ordered = [tuple(row[p] for p in positions) for row in rows]
        assert self._connection is not None
        if insert:
            marks = ",".join("?" * len(schema))
            self._connection.executemany(
                f'INSERT INTO "{table}" VALUES ({marks})', ordered
            )
        else:
            conditions = " AND ".join(f'"{a}" = ?' for a in schema)
            self._connection.executemany(
                f'DELETE FROM "{table}" WHERE {conditions}', ordered
            )

    def run(self, query: Query, database: "Database") -> EngineRun:
        return self._execute_sql(query_to_sql(query), {}, query, database)

    def plan(self, query: Query, database: "Database") -> str:
        """Generate the SQL text once; parameters stay ``:name``
        placeholders that sqlite binds natively on every run."""
        return query_to_sql(query)

    def run_planned(
        self,
        artifact: Any,
        query: Query,
        database: "Database",
        params: "Mapping[str, Any] | None" = None,
    ) -> EngineRun:
        if not isinstance(artifact, str):
            return self.run(query, database)
        return self._execute_sql(artifact, dict(params or {}), query, database)

    def _execute_sql(
        self, sql: str, params: dict, query: Query, database: "Database"
    ) -> EngineRun:
        connection = self._ensure(database)
        cursor = connection.execute(sql, params)
        schema = tuple(column[0] for column in cursor.description)
        rows = [tuple(row) for row in cursor.fetchall()]
        relation = Relation(schema, rows, name=query.name or "result")
        return EngineRun(relation=relation)

    def explain(self, query: Query, database: "Database") -> str:
        from repro.plan.params import collect_params

        connection = self._ensure(database)
        sql = query_to_sql(query)
        # Unbound placeholders explain fine with NULL stand-ins.
        stand_ins = {name: None for name in collect_params(query)}
        lines = [f"query: {query}", f"sql: {sql}", "sqlite query plan:"]
        for row in connection.execute(f"EXPLAIN QUERY PLAN {sql}", stand_ins):
            lines.append(f"  {row[-1]}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
EngineFactory = Callable[..., Engine]

_REGISTRY: dict[str, EngineFactory] = {}


def register_engine(
    name: str, factory: EngineFactory, *, replace: bool = False
) -> None:
    """Register an engine ``factory`` (``**options -> Engine``) by name.

    Names are case-insensitive.  Re-registering an existing name raises
    unless ``replace=True`` — overriding a built-in should be a loud,
    deliberate act.
    """
    key = name.lower()
    if key in _REGISTRY and not replace:
        raise ValueError(
            f"engine {name!r} is already registered "
            "(pass replace=True to override it)"
        )
    _REGISTRY[key] = factory


def create_engine(name: str, **options) -> Engine:
    """Instantiate a registered engine, forwarding ``options``.

    An option the engine does not take is reported like an unknown
    engine name: a ``ValueError`` naming the engine, the option and the
    options it does accept.
    """
    try:
        factory = _REGISTRY[name.lower()]
    except KeyError:
        from repro.api.util import suggest

        raise ValueError(
            f"unknown engine {name!r}; registered engines: "
            f"{', '.join(available_engines())}"
            + suggest(name.lower(), _REGISTRY)
        ) from None
    try:
        return factory(**options)
    except TypeError as error:
        unexpected = re.search(r"unexpected keyword argument '(\w+)'", str(error))
        if unexpected is None or unexpected[1] not in options:
            raise
        accepted = [
            parameter.name
            for parameter in inspect.signature(factory).parameters.values()
            if parameter.kind is not parameter.VAR_KEYWORD
        ]
        raise ValueError(
            f"engine {name!r} does not accept option {unexpected[1]!r}; "
            f"accepted options: {', '.join(accepted) or '(none)'}"
        ) from None


def available_engines() -> tuple[str, ...]:
    """Registered engine names, sorted."""
    return tuple(sorted(_REGISTRY))


def _sharded_factory(**options) -> Engine:
    # Imported lazily: repro.shard.engine subclasses Engine from this
    # module, so a top-level import would be circular.
    from repro.shard.engine import ShardedFDBBackend

    # Lets introspection (create_engine's error report) see the options.
    _sharded_factory.__wrapped__ = ShardedFDBBackend
    return ShardedFDBBackend(**options)


register_engine("fdb", FDBBackend)
register_engine("fdb-factorised", partial(FDBBackend, output="factorised"))
register_engine("fdb-parallel", _sharded_factory)
register_engine("rdb", RDBBackend)
register_engine("rdb-hash", partial(RDBBackend, grouping="hash"))
register_engine("sqlite", SQLiteBackend)
