"""The session facade: one object owning a database and an engine choice.

:func:`connect` is the front door of the library::

    from repro import col, connect

    session = connect(pizzeria_database())          # default engine: fdb
    top = (session.query("R")
           .group_by("customer")
           .sum("price", "revenue")
           .order_by("revenue", desc=True)
           .limit(3)
           .run())
    print(top.pretty())
    print(top.explain())

Aggregates and selections accept scalar expressions built with
:func:`repro.col`; the factorised engine distributes them over
independent branches (Section 3.2)::

    session.query("Orders").group_by("customer").sum(
        col("price") * col("qty"), alias="revenue"
    ).run()

A session caches one prepared backend instance per engine name, so
e.g. the sqlite backend loads the database once and reuses the
connection across queries.  Every cached backend is checked against
the database's version stamp before each use: after a mutation, the
pending changes are delta-forwarded to backends that support it (the
sqlite connection receives the corresponding INSERT/DELETE statements)
and the rest re-prepare — a stale backend can never serve a query.

Sessions are also the write path.  :meth:`Session.insert`,
:meth:`Session.delete` and :meth:`Session.apply` mutate the database
through the delta subsystem (keeping factorised views incrementally
maintained), and :meth:`Session.watch` returns a
:class:`repro.ivm.view.LiveView` whose aggregates stay fresh under
those mutations::

    live = session.watch(
        session.query("R").group_by("customer").sum("price", "revenue")
    )
    session.insert("Orders", [("Lucia", "Monday", "Margherita")])
    print(live.result.pretty())   # already reflects the new order

Queries follow a two-phase *prepared* lifecycle: :meth:`Session.prepare`
compiles once and returns a :class:`repro.plan.prepared.PreparedQuery`
whose ``run(**params)`` re-executes the retained plan with fresh
parameter bindings; :meth:`Session.execute` is a thin prepare-then-run
wrapper over the same machinery, so structurally identical queries
share compiled plans through the session's plan cache and identical
*bound* queries are served from the result cache while the database
version allows (fine-grained invalidation off the IVM change log)::

    top = session.prepare(
        session.query("R").where("price", ">", param("floor"))
        .group_by("customer").sum("price", "revenue")
    )
    monday = top.run(floor=10)
    tuesday = top.run(floor=20)   # same plan, new binding
    print(tuesday.explain())      # "plan cache hit", prepare/run timings

Sessions can also be **snapshot-isolated readers** over a shared,
concurrently mutated database: open one over a pinned
:class:`repro.database.Snapshot` (``Session(db.snapshot())``) and every
query observes exactly the pinned version while writers keep
committing — prepared queries and result caches key on that pinned
version, never on "latest".  :meth:`Session.refresh` advances the pin
to the newest committed version (forwarding the logged changes to
cached backends), and mutations through a pinned session write to the
underlying database and then refresh, so a session reads its own
writes.  The server mode (:mod:`repro.server`) hands such sessions out
from a :class:`~repro.server.SessionPool`; ``close()`` on a pool-owned
session returns it to the pool instead of destroying its backends.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence, Union

from repro.api.builder import QueryBuilder
from repro.api.engines import Engine, available_engines, create_engine
from repro.api.result import Result
from repro.api.util import suggest
from repro.database import ApplyReport, Database, Snapshot
from repro.plan.cache import SessionCaches
from repro.plan.prepared import PreparedQuery
from repro.query import Query, QueryError
from repro.relational.relation import Relation

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.core.frep import Factorisation
    from repro.ivm.delta import Delta
    from repro.ivm.view import LiveView

Queryish = Union[Query, QueryBuilder, str]


class SessionClosedError(RuntimeError):
    """Raised when a closed session is asked to do work.

    :meth:`Session.close` releases backend resources permanently; any
    later ``execute``/``prepare``/``insert``/``watch``/... raises this
    instead of whatever a torn-down backend would happen to throw.
    Open a new session over the same database to keep working.
    """


class Session:
    """Owns a database, a default engine, and per-query options.

    Parameters
    ----------
    database:
        the catalogue queries run against (shared, not copied);
    engine:
        default backend — a registry name (``"fdb"``, ``"rdb"``,
        ``"sqlite"``, ...) or an :class:`~repro.api.engines.Engine`
        instance;
    cache:
        ``False`` disables the session's plan and result caches (each
        ``execute`` then plans afresh; explicit
        :class:`~repro.plan.prepared.PreparedQuery` handles still
        retain their own compiled plan);
    plan_cache_size / result_cache_size:
        LRU capacities of the two caches (0 disables one cache);
    verify:
        ``True`` runs the :mod:`repro.analysis` plan verifier over
        every freshly compiled artifact — f-tree invariants, f-plan
        operator conditions, expression types — and raises
        :class:`~repro.analysis.verifier.PlanVerificationError` at
        *prepare* time when an invariant is violated (cache hits were
        verified when stored and are not re-checked);
    engine_options:
        forwarded to the registry factory of the default engine
        (e.g. ``optimizer="exhaustive"`` for FDB).

    Sessions are context managers: backends may hold real resources
    (the sqlite connection), and :meth:`close` releases them.  ``close`` is
    idempotent and *final*: any later use raises
    :class:`SessionClosedError`.
    """

    def __init__(
        self,
        database: "Database | Snapshot",
        engine: "str | Engine" = "fdb",
        cache: bool = True,
        plan_cache_size: int = 128,
        result_cache_size: int = 256,
        caches: "SessionCaches | None" = None,
        verify: bool = False,
        **engine_options,
    ) -> None:
        # A session over a Snapshot is a pinned (snapshot-isolated)
        # reader: queries observe exactly the pinned version; mutations
        # route to the origin database and then re-pin (read-your-own-
        # writes).  self.database is what engines and caches read.
        if isinstance(database, Snapshot):
            self._origin: Database = database.database
            self._snapshot: "Snapshot | None" = database
        else:
            self._origin = database
            self._snapshot = None
        self.database = database
        self.verify = verify
        self._default_engine: "str | Engine" = engine
        self._default_options = engine_options
        self._engines: dict = {}
        self._closed = False
        self._pool = None  # set by SessionPool on pooled sessions
        self._in_pool = False  # True while checked in (unleased)
        if caches is not None:
            # A shared cache pair (e.g. the pool's): plans and results
            # are version-validated per reader, so sharing is safe.
            self.caches = caches
            self._owns_caches = False
        else:
            self.caches = SessionCaches.sized(
                plan_cache_size if cache else 0,
                result_cache_size if cache else 0,
            )
            self._owns_caches = True
        # Engine instances this session prepared, with the database
        # version each one last observed.  Keyed by id() but the values
        # hold strong references: a bare id set would let a freed
        # instance's recycled address masquerade as already-prepared.
        self._prepared: dict[int, tuple[Engine, int]] = {}

    # ------------------------------------------------------------------
    # Building queries
    # ------------------------------------------------------------------
    def query(self, *relations: str) -> QueryBuilder:
        """Start a fluent query over the named relations."""
        self._ensure_open()
        if not relations:
            raise QueryError("query() needs at least one relation name")
        self._check_relations(relations)
        return QueryBuilder(self, tuple(relations))

    def sql(
        self,
        text: str,
        engine: "str | Engine | None" = None,
        name: str = "",
        params: "Mapping[str, Any] | Sequence[Any] | None" = None,
    ) -> "Result | ApplyReport":
        """Parse a SQL string and execute it.

        SELECT statements run through the chosen engine and return a
        :class:`Result`; INSERT/DELETE statements are lowered to a
        :class:`repro.ivm.delta.Delta` and applied, returning the
        :class:`repro.database.ApplyReport`.  ``params`` binds ``?`` /
        ``:name`` placeholders of a parameterised SELECT.
        """
        from repro.ivm.delta import Delta
        from repro.sql import parse_statement

        self._ensure_open()
        parsed = parse_statement(text, name=name)
        if isinstance(parsed, Delta):
            if params:
                raise QueryError(
                    "params apply to SELECT statements only; INSERT/DELETE "
                    "rows are passed literally"
                )
            return self.apply(parsed)
        return self.execute(parsed, engine=engine, params=params)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def prepare(
        self, query: Queryish, engine: "str | Engine | None" = None
    ) -> PreparedQuery:
        """Plan a query once; run it many times with fresh bindings.

        Returns a :class:`repro.plan.prepared.PreparedQuery` whose
        ``run(*args, **params)`` binds ``?``/``:name``/``param(...)``
        placeholders and executes the retained plan (compiled on the
        first run, re-planned only when the catalogue changed shape).
        The compiled plan is also published in the session's plan
        cache, keyed on the query's canonical structural hash.
        """
        self._ensure_open()
        return PreparedQuery(self, self._coerce(query), engine=engine)

    def execute(
        self,
        query: Queryish,
        engine: "str | Engine | None" = None,
        params: "Mapping[str, Any] | Sequence[Any] | None" = None,
    ) -> Result:
        """Run a query (builder, AST, or SQL text); returns a Result.

        A thin prepare-then-run wrapper: repeated structurally
        identical queries hit the session's plan cache (skipping
        optimisation), and identical bound queries are served from the
        result cache while the database version allows.  ``params`` is
        a ``{name: value}`` mapping, or a sequence binding positionally
        in declaration order (the DB-API style for ``?`` placeholders).
        """
        from repro.plan.params import ParameterError

        prepared = self.prepare(query, engine=engine)
        if params is None:
            return prepared.run()
        if isinstance(params, Mapping):
            return prepared.run(**dict(params))
        if isinstance(params, (list, tuple)):
            return prepared.run(*params)
        raise ParameterError(
            f"params must be a mapping of parameter names or a sequence "
            f"of positional values, got {type(params).__name__}"
        )

    def explain(self, query: Queryish, engine: "str | Engine | None" = None) -> str:
        """Describe the chosen engine's plan without executing."""
        self._ensure_open()
        lowered = self._coerce(query)
        return self._resolve(engine).explain(lowered, self.database)

    # ------------------------------------------------------------------
    # Engine selection
    # ------------------------------------------------------------------
    def use(self, engine: "str | Engine", **engine_options) -> "Session":
        """Switch the session's default engine in place; returns self."""
        self._default_engine = engine
        self._default_options = engine_options
        return self

    def with_engine(self, engine: "str | Engine", **engine_options) -> "Session":
        """A new session over the same database with another default."""
        return Session(
            self.database, engine=engine, verify=self.verify, **engine_options
        )

    @staticmethod
    def engines() -> tuple[str, ...]:
        """Names accepted by ``engine=`` arguments."""
        return available_engines()

    def _peek(self, engine: "str | Engine | None") -> Engine:
        """The backend instance for a selection, *without* freshening.

        Result-cache hits use this: naming the engine must not trigger
        change-log forwarding or re-preparation the hit will never use.
        """
        options: dict = {}
        if engine is None:
            engine = self._default_engine
            options = self._default_options
        if isinstance(engine, Engine):
            if options:
                raise ValueError(
                    "engine options only apply to registry names; "
                    f"configure the {type(engine).__name__} instance "
                    "directly instead"
                )
            return engine
        key = (engine.lower(), tuple(sorted(options.items())))
        if key not in self._engines:
            self._engines[key] = create_engine(engine, **options)
        return self._engines[key]

    def _resolve(self, engine: "str | Engine | None") -> Engine:
        return self._freshened(self._peek(engine))

    def _engine_cache_key(self, engine: "str | Engine | None"):
        """The cache-scoping key of an engine selection.

        Mirrors :meth:`_resolve`'s backend keying so plans compiled for
        ``engine="fdb"`` never serve ``engine="sqlite"`` (or a
        differently configured instance of the same backend).
        """
        options: dict = {}
        if engine is None:
            engine = self._default_engine
            options = self._default_options
        if isinstance(engine, Engine):
            return ("instance", id(engine))
        return (engine.lower(), tuple(sorted(options.items())))

    def _freshened(self, backend: Engine) -> Engine:
        """Prepare ``backend`` or bring it up to the database version.

        The per-backend version stamp is the stale-cache guard: after
        any mutation (through this session, the database directly, or
        SQL), a cached backend either absorbs the logged changes via
        :meth:`repro.api.engines.Engine.forward` or re-prepares.
        """
        database = self.database
        known = self._prepared.get(id(backend))
        if known is None:
            backend.prepare(database)
        elif known[1] != database.version:
            records = database.changes_since(known[1])
            if records is None or not backend.forward(records, database):
                backend.prepare(database)
        self._prepared[id(backend)] = (backend, database.version)
        return backend

    # ------------------------------------------------------------------
    # Snapshot pinning
    # ------------------------------------------------------------------
    @property
    def pinned_version(self) -> "int | None":
        """The pinned snapshot version, or None for an unpinned session."""
        if self._snapshot is None:
            return None
        return self._snapshot.version

    @property
    def version(self) -> int:
        """The database version this session currently observes."""
        return self.database.version

    def refresh(self) -> int:
        """Advance a pinned session to the newest committed version.

        Takes a fresh snapshot of the origin database, swaps it in as
        this session's read view, and releases the old pin.  Cached
        backends absorb the logged changes between the two pins on
        their next use (or re-prepare if the gap was truncated).  On an
        unpinned session this is a no-op reporting the current version.
        Returns the version now observed.
        """
        self._ensure_open()
        if self._snapshot is None:
            return self.database.version
        fresh = self._origin.snapshot()
        old = self._snapshot
        self._snapshot = fresh
        self.database = fresh
        old.release()
        return fresh.version

    def _sync_pin(self) -> None:
        """Re-pin after a write through this session (read-your-writes)."""
        if self._snapshot is not None:
            self.refresh()

    def _unpin(self) -> None:
        """Release the pin's retention claim (pool idling); reads keep
        working off the captured state until the next :meth:`refresh`."""
        if self._snapshot is not None:
            self._snapshot.release()

    # ------------------------------------------------------------------
    # Resource lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def _ensure_open(self) -> None:
        if self._closed:
            raise SessionClosedError(
                "this session is closed; open a new one with "
                "repro.connect(...) over the same database"
            )
        if self._in_pool:
            raise SessionClosedError(
                "this session was returned to its pool; acquire a "
                "fresh one from the pool instead of reusing the handle"
            )

    def close(self) -> None:
        """Release this session; pool-owned sessions return to the pool.

        A session handed out by a :class:`repro.server.SessionPool`
        goes back to the pool with its backends and caches warm, ready
        for the next lease (the handle itself becomes unusable — any
        later call raises :class:`SessionClosedError`).  A directly
        constructed session keeps the original semantics: every cached
        backend's resources are released permanently (connections
        close) and the session-owned caches clear.
        ``close`` is idempotent either way.
        """
        if self._closed or self._in_pool:
            return
        if self._pool is not None:
            self._pool.release(self)
            return
        self._destroy()

    def _destroy(self) -> None:
        """The permanent teardown behind :meth:`close`; idempotent."""
        if self._closed:
            return
        self._closed = True
        backends: dict[int, Engine] = {
            id(backend): backend for backend, _ in self._prepared.values()
        }
        for backend in self._engines.values():
            backends.setdefault(id(backend), backend)
        if isinstance(self._default_engine, Engine):
            backends.setdefault(
                id(self._default_engine), self._default_engine
            )
        for backend in backends.values():
            backend.close()
        self._prepared.clear()
        self._engines.clear()  # nothing may resurrect a closed backend
        if self._owns_caches:
            self.caches.clear()  # a shared (pool) cache outlives sessions
        self._unpin()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(
        self,
        relation: str,
        rows: Iterable[Sequence[Any]],
        columns: Sequence[str] | None = None,
    ) -> ApplyReport:
        """Insert rows into a relation, maintaining every derived view.

        On a pinned session the write goes to the origin database (the
        single writer lock serialises concurrent writers) and the pin
        then advances so this session reads its own write.
        """
        self._ensure_open()
        report = self._origin.insert(relation, rows, columns)
        self._sync_pin()
        return report

    def delete(
        self,
        relation: str,
        rows: Iterable[Sequence[Any]] | None = None,
        where: "Callable[[dict], bool] | Sequence | None" = None,
    ) -> ApplyReport:
        """Delete rows (by value, predicate, or all) from a relation."""
        self._ensure_open()
        report = self._origin.delete(relation, rows, where)
        self._sync_pin()
        return report

    def apply(self, delta: "Delta") -> ApplyReport:
        """Apply a batched :class:`repro.ivm.delta.Delta` atomically.

        Factorised views are delta-maintained, cached engine backends
        are invalidated or delta-forwarded on their next use, and live
        views created with :meth:`watch` pick the changes up from the
        database's change log.
        """
        self._ensure_open()
        report = self._origin.apply(delta)
        self._sync_pin()
        return report

    def watch(
        self, query: Queryish, engine: "str | Engine | None" = None
    ) -> "LiveView":
        """A maintained result that stays fresh under mutations."""
        from repro.ivm.view import LiveView

        self._ensure_open()
        return LiveView(self, self._coerce(query), engine=engine)

    # ------------------------------------------------------------------
    # Catalogue management
    # ------------------------------------------------------------------
    def add_relation(self, relation: Relation, name: str = "") -> "Session":
        """Register a flat relation; returns self for chaining.

        Registration bumps the database version, so prepared backends
        re-prepare on their next use.
        """
        self._ensure_open()
        self._origin.add_relation(relation, name=name)
        self._sync_pin()
        return self

    def add_factorised(
        self, name: str, factorisation: "Factorisation"
    ) -> "Session":
        """Register a factorised materialised view; returns self."""
        self._ensure_open()
        self._origin.add_factorised(name, factorisation)
        self._sync_pin()
        return self

    def names(self) -> list[str]:
        """All view names the session can query."""
        return self.database.names()

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _check_relations(self, relations: Iterable[str]) -> None:
        known = self.database.names()
        for name in relations:
            if name not in self.database:
                raise QueryError(
                    f"unknown relation {name!r}; the database holds: "
                    f"{', '.join(known) if known else '(nothing)'}"
                    + suggest(name, known)
                )

    def _coerce(self, query: Queryish) -> Query:
        if isinstance(query, QueryBuilder):
            return query.to_query()
        if isinstance(query, str):
            from repro.sql import parse_query

            return parse_query(query)
        if isinstance(query, Query):
            return query
        raise TypeError(
            f"expected a QueryBuilder, Query, or SQL string, "
            f"got {type(query).__name__}"
        )

    def __repr__(self) -> str:
        engine = self._default_engine
        label = engine if isinstance(engine, str) else engine.name
        return (
            f"Session(engine={label!r}, "
            f"relations={', '.join(self.names()) or '(empty)'})"
        )


def connect(
    source: "Database | Snapshot | Relation | Iterable[Relation] | None" = None,
    engine: "str | Engine" = "fdb",
    cache: bool = True,
    plan_cache_size: int = 128,
    result_cache_size: int = 256,
    verify: bool = False,
    **engine_options,
) -> Session:
    """Open a :class:`Session` — the canonical entry point.

    ``source`` may be a :class:`repro.database.Database`, a pinned
    :class:`repro.database.Snapshot` (for a snapshot-isolated reader),
    a single :class:`~repro.relational.relation.Relation`, an iterable
    of relations, or ``None`` for an empty database to be populated via
    :meth:`Session.add_relation`.  ``cache`` and the two size knobs
    configure the session's plan/result caches; ``verify=True`` turns
    on the :mod:`repro.analysis` plan verifier (see :class:`Session`).
    """
    if source is None:
        database = Database()
    elif isinstance(source, (Database, Snapshot)):
        database = source
    elif isinstance(source, Relation):
        database = Database([source])
    else:
        database = Database(source)
    return Session(
        database,
        engine=engine,
        cache=cache,
        plan_cache_size=plan_cache_size,
        result_cache_size=result_cache_size,
        verify=verify,
        **engine_options,
    )
