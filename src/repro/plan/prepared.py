"""The prepared-query handle: plan once, run many times.

``session.prepare(query)`` canonicalises and compiles a query through
the chosen backend's :meth:`repro.api.engines.Engine.plan` stage and
returns a :class:`PreparedQuery`; every :meth:`PreparedQuery.run`
binds parameter values, consults the session's result cache, and only
on a miss executes the retained plan — re-planning happens solely when
the catalogue fingerprint no longer matches (schema change, view
rebuild).

``Session.execute`` is a thin prepare-then-run wrapper over this
module, so plain repeated queries enjoy the same caches without any
API change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.obs import clock, spans
from repro.obs.metrics import metrics
from repro.plan.cache import MISS, catalogue_fingerprint
from repro.plan.canonical import bound_key, canonical_key
from repro.plan.params import ParameterError, bind_params, collect_params
from repro.query import Query

from repro.relational.relation import Relation

_QUERIES = metrics().counter(
    "repro_queries_total",
    "Queries executed through the prepared-query lifecycle.",
    ("engine",),
)
_QUERY_SECONDS = metrics().histogram(
    "repro_query_seconds",
    "End-to-end query latency through the prepared-query lifecycle.",
    ("engine",),
)

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.api.engines import Engine, EngineRun
    from repro.api.result import Result
    from repro.api.session import Session


def _isolate(payload: "EngineRun") -> "EngineRun":
    """A payload whose flat rows are isolated from caller mutation.

    Cached payloads are shared across executions; ``Result.rows``
    exposes a mutable list, so both the stored snapshot and every hit
    get their own row list (factorised payloads are safe as-is —
    enumeration materialises fresh rows per Result).  Rows are tuples,
    so a copy of the list is the whole snapshot.
    """
    if payload.relation is None:
        return payload
    from repro.api.engines import EngineRun

    relation = payload.relation
    return EngineRun(
        relation=Relation.adopt(relation.schema, list(relation.rows), relation.name),
        plan=payload.plan,
        trace=payload.trace,
    )


@dataclass(frozen=True)
class LifecycleInfo:
    """Cache outcomes and prepare-vs-run timings of one execution.

    ``plan_cache`` is ``"hit"`` when the compiled plan was reused
    (optimisation skipped), ``"miss"`` when this execution compiled it,
    and ``"skipped"`` when a result-cache hit made planning moot.
    ``result_cache`` is ``"hit"``/``"miss"``, or ``"off"`` when result
    caching is disabled.
    """

    plan_cache: str
    result_cache: str
    prepare_seconds: float
    run_seconds: float
    parameters: tuple[str, ...] = ()

    def describe(self) -> str:
        lines = [
            f"prepared: plan cache {self.plan_cache} · "
            f"result cache {self.result_cache}"
            + (
                f" · params ({', '.join(':' + n for n in self.parameters)})"
                if self.parameters
                else ""
            ),
            f"timings: prepare {self.prepare_seconds * 1000:.3f} ms · "
            f"run {self.run_seconds * 1000:.3f} ms",
        ]
        return "\n".join(lines)


class PreparedQuery:
    """A compiled query bound to a session and an engine choice.

    Created by :meth:`repro.api.session.Session.prepare`.  Instances
    retain the compiled plan artifact themselves (so the lifecycle
    works even with the session caches disabled) and additionally
    publish it in the session's shared plan cache, where later
    ``prepare``/``execute`` calls for a structurally identical query
    find it.
    """

    def __init__(
        self, session: "Session", query: Query, engine=None
    ) -> None:
        self._session = session
        self._query = query
        self._engine = engine
        self._parameters = collect_params(query)
        self._key = canonical_key(query)
        self._artifact: Any = MISS  # locally retained compiled plan
        self._fingerprint: tuple | None = None  # what _artifact was built for
        self._fingerprint_memo: "tuple[int, tuple] | None" = None
        self._plan_status = "miss"
        # Compilation is lazy: it happens on the first run's cache
        # miss, after the backend has been freshened — so a result
        # cache hit does zero planning work, and a store-owning backend
        # (sqlite) prepares its data exactly once.
        self.prepare_seconds = 0.0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def query(self) -> Query:
        """The (unbound) canonical query this handle executes."""
        return self._query

    @property
    def parameters(self) -> tuple[str, ...]:
        """Declared parameter names, in binding order."""
        return self._parameters

    @property
    def cache_key(self) -> str:
        """The canonical structural hash (plan-cache key)."""
        return self._key

    def explain(self) -> str:
        """The backend's explain text for this query.

        Re-derived against the current catalogue (a diagnostic, not
        the cached artifact rendered); the fingerprint check keeps the
        retained plan aligned with what this describes, but for
        per-execution evidence — cache outcomes, timings — read
        ``result.explain()`` off a :meth:`run` result instead.
        """
        self._session._ensure_open()
        backend = self._session._resolve(self._engine)
        return backend.explain(self._query, self._session.database)

    def __repr__(self) -> str:
        params = ", ".join(":" + name for name in self._parameters)
        return (
            f"PreparedQuery({self._query}"
            + (f"; params [{params}]" if params else "")
            + f", key={self._key[:12]})"
        )

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def _engine_key(self):
        return self._session._engine_cache_key(self._engine)

    def _catalogue_fingerprint(self, backend: "Engine", database) -> tuple:
        """The current fingerprint, memoised per database version.

        Walking every registered view's f-tree is the costliest part of
        a cache hit; the fingerprint can only change when the version
        does, so one computation serves all lookups in between.  For
        stats-sensitive backends (cost-based optimiser) the fingerprint
        also folds in the stats-cache epochs of the query's relations,
        so drift past the re-optimisation threshold invalidates the
        cached plan.  Memoising per version stays sound: drift counters
        only move on mutations, which bump the version.
        """
        if (
            self._fingerprint_memo is not None
            and self._fingerprint_memo[0] == database.version
        ):
            return self._fingerprint_memo[1]
        fingerprint = catalogue_fingerprint(database, self._query.relations)
        if getattr(backend, "stats_sensitive", False):
            from repro.stats import stats_cache

            epochs = stats_cache().epochs_for(
                database, self._query.relations
            )
            fingerprint = fingerprint + (("stats-epochs",) + epochs,)
        self._fingerprint_memo = (database.version, fingerprint)
        return fingerprint

    def _ensure_artifact(self, backend: "Engine", database) -> Any:
        """The compiled plan, revalidated against the catalogue.

        Order of preference: the session's shared plan cache, this
        handle's own retained artifact, a fresh compile.  Every path
        leaves both stores holding the current artifact.
        """
        fingerprint = self._catalogue_fingerprint(backend, database)
        plans = self._session.caches.plans
        cache_key = (self._engine_key(), self._key)
        artifact = plans.lookup(cache_key, fingerprint)
        if artifact is not MISS:
            self._artifact, self._fingerprint = artifact, fingerprint
            self._plan_status = "hit"
            return artifact
        if self._artifact is not MISS and self._fingerprint == fingerprint:
            plans.store(cache_key, self._artifact, fingerprint)
            self._plan_status = "hit"
            return self._artifact
        start = clock.now()
        with spans.span("plan", engine=backend.name):
            artifact = backend.plan(self._query, database)
        self.prepare_seconds = clock.now() - start
        if getattr(self._session, "verify", False):
            # Sessions opened with verify=True run the repro.analysis
            # semantic verifier over every *fresh* compile — cache hits
            # were checked when first stored.  Error findings abort the
            # prepare before the bad plan reaches either store.
            self._verify_artifact(artifact, database)
        self._artifact, self._fingerprint = artifact, fingerprint
        plans.store(cache_key, artifact, fingerprint)
        self._plan_status = "miss"
        return artifact

    def _verify_artifact(self, artifact: Any, database) -> None:
        """Raise :class:`PlanVerificationError` on error findings."""
        from repro.analysis.verifier import (
            PlanVerificationError,
            verify_artifact,
        )

        findings = verify_artifact(
            self._query, artifact, database, subject=f"prepare:{self._query}"
        )
        errors = [f for f in findings if f.severity == "error"]
        if errors:
            raise PlanVerificationError(errors)

    def _current_artifact(self, backend: "Engine", database) -> Any:
        """The retained plan if still valid, else a revalidated one.

        Unlike :meth:`_ensure_artifact` this does not touch the shared
        cache on the fast path, so the reported plan status keeps
        meaning "was optimisation skipped for this execution".
        """
        fingerprint = self._catalogue_fingerprint(backend, database)
        if self._artifact is not MISS and self._fingerprint == fingerprint:
            return self._artifact
        return self._ensure_artifact(backend, database)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _resolve_values(self, args: tuple, named: dict) -> dict:
        declared = self._parameters
        if len(args) > len(declared):
            raise ParameterError(
                f"{len(args)} positional values for {len(declared)} "
                f"parameter(s) "
                f"({', '.join(':' + n for n in declared) or 'none declared'})"
            )
        values = dict(zip(declared, args))
        for name, value in named.items():
            if name in values:
                raise ParameterError(
                    f"parameter :{name} bound both positionally and by name"
                )
            values[name] = value
        return values

    def run(self, *args: Any, **named: Any) -> "Result":
        """Execute with the given parameter binding; returns a Result.

        Positional values bind parameters in :attr:`parameters` order;
        keyword values bind by name.  The result cache is consulted
        first (keyed on the bound query and validated against the
        database version via the change log); on a miss the retained
        plan executes against the current data.
        """
        session = self._session
        session._ensure_open()
        values = self._resolve_values(args, named)
        bound = (
            bind_params(self._query, values)
            if self._parameters or values
            else self._query
        )
        with spans.span("session.query") as root:
            result = self._run_bound(session, bound, values, root)
        if root is not None:
            result.span = root
        return result

    def _run_bound(
        self, session: "Session", bound: Query, values: dict, root
    ) -> "Result":
        """The lifecycle body, inside the ``session.query`` root span."""
        database = session.database
        results = session.caches.results
        result_key = (
            self._engine_key(),
            bound_key(self._query, values) if values else self._key,
        )
        start = clock.now()
        with spans.span("cache.lookup"):
            entry = results.entry(result_key, database)
        if entry is not None:
            # A hit needs no live backend: _peek names it without
            # freshening (no change-log forwarding for skipped work).
            payload = _isolate(entry.payload)  # hits never alias the snapshot
            backend = session._peek(self._engine)
            run_seconds = clock.now() - start
            info = LifecycleInfo(
                plan_cache="skipped",
                result_cache="hit",
                prepare_seconds=self.prepare_seconds,
                run_seconds=run_seconds,
                parameters=self._parameters,
            )
            self._observe(root, backend.name, "hit", run_seconds)
            # The entry keeps the plan its payload was computed with.
            return self._wrap(bound, backend, payload, info, entry.artifact)
        backend = session._resolve(self._engine)
        artifact = self._current_artifact(backend, database)
        with spans.span("engine.run", engine=backend.name):
            payload = backend.run_planned(
                artifact, bound, database, params=values
            )
        run_seconds = clock.now() - start
        if results.capacity:
            # Store a snapshot: the caller owns `payload` and may mutate
            # its rows; the cache entry must stay pristine.
            results.store(
                result_key,
                _isolate(payload),
                database,
                self._query.relations,
                artifact,
            )
        info = LifecycleInfo(
            plan_cache=self._plan_status,
            result_cache="miss" if results.capacity else "off",
            prepare_seconds=self.prepare_seconds,
            run_seconds=run_seconds,
            parameters=self._parameters,
        )
        self._observe(
            root,
            backend.name,
            "miss" if results.capacity else "off",
            run_seconds,
        )
        # The retained plan serves every later run of this handle: from
        # now on optimisation is skipped, which is what "hit" reports.
        self._plan_status = "hit"
        return self._wrap(bound, backend, payload, info, artifact)

    def _observe(
        self, root, engine: str, result_cache: str, run_seconds: float
    ) -> None:
        """Per-query metrics and root-span attributes (enabled only)."""
        if root is not None:
            root.attributes["engine"] = engine
            root.attributes["result_cache"] = result_cache
        _QUERIES.labels(engine).inc()
        _QUERY_SECONDS.labels(engine).observe(run_seconds)

    __call__ = run

    def _wrap(
        self,
        bound: Query,
        backend: "Engine",
        payload: "EngineRun",
        info: LifecycleInfo,
        artifact: Any,
    ) -> "Result":
        """The run's Result; its explain renders ``artifact``, the plan
        the run executed (``None``: the backend plans ``bound`` again)."""
        from repro.api.result import Result

        database = self._session.database  # keep the Result from
        # pinning the session (and its caches): the closure captures
        # only the backend, the database and the artifact, as a Result
        # may outlive the session that produced it.
        return Result(
            bound,
            backend.name,
            relation=payload.relation,
            factorised=payload.factorised,
            plan=payload.plan,
            trace=payload.trace,
            explain_fn=lambda: backend.explain(bound, database, artifact),
            seconds=info.run_seconds,
            lifecycle=info,
        )
