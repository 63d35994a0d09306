"""A named collection of flat relations and factorised materialised views.

The paper's read-optimised scenario stores materialised views as
factorisations and evaluates subsequent queries directly on them
(Section 1).  A :class:`Database` therefore holds two catalogues:

- ``relations`` — flat :class:`repro.relational.relation.Relation`s,
  the input representation for the relational engines; and
- ``factorised`` — factorised views (:class:`repro.core.frep.Factorisation`),
  the input representation for FDB.

Either engine falls back to the other representation when asked for a
view it only has in the other form (FDB factorises flat input on the
fly; RDB flattens factorised input), so the same workload can be run
against every engine regardless of which representation was registered.

Databases are **mutable**: :meth:`insert`, :meth:`delete` and
:meth:`apply` change the catalogue in place and keep every registered
factorisation fresh through the delta-maintenance subsystem of
:mod:`repro.ivm` — routed splices where the f-tree's independence
assumptions allow, recorded rebuilds where they do not.  Every mutation
bumps :attr:`version` and appends to a bounded change log
(:meth:`changes_since`), which is how cached engine backends and live
views detect and forward changes.  The mutation API uses set semantics
(the paper's relations are sets): inserting an existing row is a no-op
and deleting a row removes every occurrence.

Databases are also **safe under concurrent readers and writers**.
Mutation is serialised by a single writer lock, every change applies
copy-on-write (flat relations are replaced, never extended in place;
factorised views were always persistent structures sharing unchanged
fragments), and each committed version is published atomically as an
immutable catalogue state.  :meth:`snapshot` pins one such state: a
:class:`Snapshot` is a read-only, version-frozen view of the catalogue
that stays consistent while writers keep appending — the MVCC primitive
the server mode (:mod:`repro.server`) builds sessions on.  Pinned
versions extend the change log's retention (up to a hard cap) so that
readers and cached backends can still replay the gap when they advance.
"""

from __future__ import annotations

import threading
import weakref
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from itertools import count
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from repro.obs import clock
from repro.obs.metrics import metrics
from repro.relational.relation import Relation, SchemaError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.frep import Factorisation
    from repro.ivm.delta import Delta, Deletion, Insertion
    from repro.ivm.maintain import ViewDelta

# Pre-bound instruments: the updates below run inside the writer lock
# or the log lock, so they must not allocate (linter: obs-allocation).
_IVM_EVENTS = metrics().counter(
    "repro_ivm_maintenance_total",
    "IVM view-maintenance outcomes: routed splice vs full rebuild.",
    ("outcome",),
)
_IVM_SPLICE = _IVM_EVENTS.labels("splice")
_IVM_REBUILD = _IVM_EVENTS.labels("rebuild")
_LOG_RECORDS = metrics().gauge(
    "repro_change_log_records", "Retained change-log records."
).labels()
_WRITER_WAIT = metrics().histogram(
    "repro_writer_lock_wait_seconds",
    "Time writers spent waiting for the single-writer lock.",
).labels()
_PINNED = metrics().gauge(
    "repro_pinned_snapshots", "Versions currently pinned by live snapshots."
).labels()
_STORE_BYTES = metrics().gauge(
    "repro_store_bytes",
    "Resident container bytes across registered factorised views.",
).labels()

#: Source of :attr:`Database.token`.
_TOKENS = count(1)

#: Retained change-log length; older records force full re-preparation.
MAX_LOG = 512

#: Hard retention cap when snapshots pin old versions.  Beyond this the
#: log truncates anyway: pinned readers keep their (object-level
#: consistent) state but lose replayability — caches miss and backends
#: re-prepare instead of forwarding, which is graceful degradation.
MAX_PINNED_LOG = 8 * MAX_LOG


class UnknownRelationError(KeyError):
    """Raised when a query references a name the database does not hold."""


class SnapshotError(RuntimeError):
    """Raised for unavailable pin versions or writes through a snapshot."""


def _path_fallback_tree(ftree):
    """The path f-tree chaining ``ftree``'s nodes in pre-order.

    Attribute classes and relation keys are preserved, so routed
    maintenance keeps working after a view falls back to its (always
    valid, less succinct) path factorisation.  The view falls back
    exactly when its data broke the independences those keys claimed,
    so every node also carries one fresh shared key: no two nodes of
    the path are independent, and a later χ cannot split a subtree off
    the node it is moved past.
    """
    from repro.core.ftree import FNode, FTree
    from repro.core.operators import _fresh_dependency_key

    tied = _fresh_dependency_key()
    chained = None
    for node in reversed(list(ftree.nodes())):
        label = node.aggregate if node.aggregate is not None else node.attributes
        chained = FNode(
            label, (chained,) if chained is not None else (), node.keys | {tied}
        )
    return FTree([chained])


def _derive_flat(
    name: str,
    fact: "Factorisation",
    stale: "Relation | None",
    order: Sequence[str],
) -> Relation:
    """A view's flat copy, derived from its factorisation.

    The copy keeps the column order of the flat copy it replaces
    (``stale``, when the attribute sets agree) and the view's declared
    sort ``order``, if any.
    """
    from repro.relational.sort import sort_relation

    derived = fact.to_relation(name)
    if stale is not None and set(stale.schema) == set(derived.schema):
        derived = derived.project(stale.schema, dedup=False)
    if order:
        derived = sort_relation(derived, order)
    derived.name = name
    return derived


#: A log record's version: the key the version-ordered log bisects on.
_VERSION = attrgetter("version")


@dataclass(frozen=True)
class LogRecord:
    """One applied change: the resolved base rows plus per-view deltas.

    ``kind`` is ``"insert"``/``"delete"`` for data changes and
    ``"register"`` for catalogue registrations (which cannot be
    forwarded as row deltas).  ``rows`` are the rows actually inserted
    or deleted after set-semantics normalisation, in ``columns`` order.
    """

    version: int
    kind: str
    relation: str
    columns: tuple[str, ...] = ()
    rows: tuple[tuple, ...] = ()
    view_deltas: "dict[str, ViewDelta]" = field(default_factory=dict)


@dataclass(frozen=True)
class ApplyReport:
    """Summary of one :meth:`Database.apply` call."""

    version: int
    inserted: int
    deleted: int
    records: tuple[LogRecord, ...] = ()

    @property
    def rebuilds(self) -> int:
        return sum(
            1
            for record in self.records
            for delta in record.view_deltas.values()
            if delta.rebuilt
        )

    def __str__(self) -> str:
        parts = [f"v{self.version}: +{self.inserted}/-{self.deleted} rows"]
        maintained = sorted(
            {
                name
                for record in self.records
                for name in record.view_deltas
            }
        )
        if maintained:
            parts.append(f"views maintained: {', '.join(maintained)}")
        if self.rebuilds:
            parts.append(f"{self.rebuilds} rebuilds")
        return "; ".join(parts)


@dataclass(frozen=True)
class _CatalogueState:
    """One committed version of the catalogue, published atomically.

    The dicts are shallow copies taken at commit time and treated as
    immutable from then on; the relation and factorisation objects they
    reference are never mutated after publication (mutation replaces
    them copy-on-write), so holding a state *is* holding a consistent
    version of the database.
    """

    version: int
    relations: "dict[str, Relation]"
    factorised: "dict[str, Factorisation]"
    stale_flat: frozenset
    flat_order: "dict[str, tuple[str, ...]]"


class Snapshot:
    """A read-only view of a :class:`Database` pinned at one version.

    Obtained from :meth:`Database.snapshot`.  A snapshot exposes the
    database's read surface (:meth:`flat`, :meth:`get_factorised`,
    :meth:`schema`, :meth:`names`, ``in``, :attr:`version`,
    :meth:`changes_since`) over the catalogue state that was current at
    the pinned version — concurrent writers never change what it
    observes.  Engines and sessions accept a snapshot wherever they
    accept a database, which is how the server mode gives every session
    snapshot isolation over one shared store.

    Snapshots hold a *pin* on their version: the change log retains the
    records a pinned reader may still replay (bounded by
    :data:`MAX_PINNED_LOG`), and per-version state stays available for
    sibling pins.  Call :meth:`release` (or use the snapshot as a
    context manager) when done; a released snapshot keeps serving
    reads — only its retention claim is dropped.
    """

    __slots__ = ("database", "_state", "_flat_cache", "_released", "__weakref__")

    def __init__(self, database: "Database", state: _CatalogueState) -> None:
        self.database = database
        self._state = state
        self._flat_cache: dict[str, Relation] = {}
        self._released = False

    # ------------------------------------------------------------------
    # Read surface (mirrors Database)
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """The pinned version: every read observes exactly this state."""
        return self._state.version

    @property
    def relations(self) -> "dict[str, Relation]":
        """The pinned flat catalogue (treat as read-only)."""
        return self._state.relations

    @property
    def factorised(self) -> "dict[str, Factorisation]":
        """The pinned factorised catalogue (treat as read-only)."""
        return self._state.factorised

    @property
    def maintenance(self):
        """The live database's maintenance counters (not versioned)."""
        return self.database.maintenance

    def __contains__(self, name: str) -> bool:
        return name in self._state.relations or name in self._state.factorised

    def names(self) -> list[str]:
        state = self._state
        return sorted(set(state.relations) | set(state.factorised))

    def schema(self, name: str) -> tuple[str, ...]:
        state = self._state
        if name in state.relations:
            return state.relations[name].schema
        if name in state.factorised:
            return tuple(state.factorised[name].schema())
        raise UnknownRelationError(name)

    def get_factorised(self, name: str) -> "Factorisation | None":
        return self._state.factorised.get(name)

    def flat(self, name: str) -> Relation:
        """The flat form at the pinned version.

        Views whose flat copy was stale at commit time (or that only
        exist factorised) are flattened from the pinned factorisation
        and memoised on the snapshot — never written back into the
        shared catalogue.
        """
        cached = self._flat_cache.get(name)
        if cached is not None:
            return cached
        state = self._state
        if name in state.factorised and (
            name in state.stale_flat or name not in state.relations
        ):
            derived = _derive_flat(
                name,
                state.factorised[name],
                state.relations.get(name),
                state.flat_order.get(name, ()),
            )
            self._flat_cache[name] = derived
            return derived
        if name in state.relations:
            return state.relations[name]
        raise UnknownRelationError(name)

    def changes_since(self, version: int) -> "list[LogRecord] | None":
        """Replayable records in ``(version, pinned]``, or None if truncated."""
        if version >= self._state.version:
            return []
        records = self.database.changes_since(version)
        if records is None:
            return None
        return records[: bisect_right(records, self._state.version, key=_VERSION)]

    def snapshot(self, version: "int | None" = None) -> "Snapshot":
        """A sibling pin (same version unless another retained one is named)."""
        return self.database.snapshot(
            self._state.version if version is None else version
        )

    # ------------------------------------------------------------------
    # Writes are rejected loudly
    # ------------------------------------------------------------------
    def _read_only(self, *_args, **_kwargs):
        raise SnapshotError(
            "snapshots are read-only; apply changes through the "
            "database (or a session over it) and take a fresh snapshot"
        )

    insert = delete = apply = add_relation = add_factorised = _read_only

    # ------------------------------------------------------------------
    # Pin lifecycle
    # ------------------------------------------------------------------
    @property
    def released(self) -> bool:
        return self._released

    def release(self) -> None:
        """Drop this pin's retention claim; idempotent.

        Reads keep working off the captured state — releasing only
        allows the change log (and per-version state registry) to
        forget this version.
        """
        if self._released:
            return
        self._released = True
        self.database._release_pin(self._state.version)

    close = release

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.release()
        except Exception:
            pass

    def __repr__(self) -> str:
        status = "released" if self._released else "pinned"
        return (
            f"Snapshot(version={self._state.version}, {status}, "
            f"views={', '.join(self.names()) or '(empty)'})"
        )


class Database:
    """Catalogue of flat relations and factorised views, by name."""

    def __init__(self, relations: Iterable[Relation] = ()) -> None:
        from repro.ivm.stats import MaintenanceStats

        self.relations: dict[str, Relation] = {}
        self.factorised: dict[str, "Factorisation"] = {}
        self.version = 0
        #: Never reused within the process, unlike ``id(self)``: what
        #: process-global caches key this database's entries on.
        self.token = next(_TOKENS)
        self.maintenance = MaintenanceStats()
        # Cumulative changed-row counts per view since creation; the
        # statistics cache (repro.stats) diffs these against the value
        # captured at seed time to detect drift.
        self._drift_rows: dict[str, float] = {}
        self._log: list[LogRecord] = []
        self._log_floor = 0  # versions ≤ this are no longer replayable
        self._stale_flat: set[str] = set()
        #: Declared sort orders of deferred flat copies (copy-on-write).
        self._flat_order: dict[str, tuple[str, ...]] = {}
        # Concurrency: _lock serialises writers (mutations and catalogue
        # registration); _log_lock guards the change log and the pin
        # registry, and is held only for short, non-blocking sections so
        # readers never wait on an in-flight apply.
        self._lock = threading.RLock()
        self._log_lock = threading.Lock()
        self._pins: dict[int, int] = {}  # version -> active pin count
        self._retained: dict[int, _CatalogueState] = {}
        self._published = _CatalogueState(0, {}, {}, frozenset(), {})
        # The gauge outlives any one database: it samples through a weak
        # reference and keeps its last value once the database is gone.
        self._store_bytes: tuple[int, float] = (0, 0.0)
        alive = weakref.ref(self)
        self._sample_store_bytes = lambda: (
            None if (database := alive()) is None else database.store_bytes()
        )
        for relation in relations:
            self.add_relation(relation)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def add_relation(self, relation: Relation, name: str = "") -> None:
        """Register a flat relation (name defaults to ``relation.name``)."""
        with self._lock:
            name = name or relation.name
            self.relations[name] = relation
            self._stale_flat.discard(name)
            self._record_registration(name)

    def add_factorised(self, name: str, factorisation: "Factorisation") -> None:
        """Register a factorised materialised view.

        One factorisation may be registered under several names; a
        base-relation change then maintains it once for all of them.
        """
        with self._lock:
            self.factorised[name] = factorisation
            _STORE_BYTES.track(self._sample_store_bytes)
            self._record_registration(name)

    def defer_flat(
        self, name: str, schema: Sequence[str], order: Sequence[str] = ()
    ) -> None:
        """Register the flat copy of factorised view ``name`` as deferred.

        Only its ``schema`` is recorded now; the rows are derived from
        the factorisation on first :meth:`flat` and sorted by ``order``.
        """
        with self._lock:
            if name not in self.factorised:
                raise UnknownRelationError(name)
            if set(schema) != set(self.factorised[name].schema()):
                raise SchemaError(f"{tuple(schema)!r} is not the schema of {name!r}")
            self.relations[name] = Relation.adopt(schema, [], name=name)
            self._stale_flat.add(name)
            self._flat_order = {**self._flat_order, name: tuple(order)}
            self._record_registration(name)

    def store_bytes(self) -> float:
        """Resident container bytes across the registered factorised views.

        What the ``repro_store_bytes`` gauge reports.  A factorisation
        registered under several names counts once.  Walking every view
        is too slow for the write path, so the total is computed when it
        is read and kept until the catalogue's next version.
        """
        state = self._published
        version, total = self._store_bytes
        if version != state.version:
            distinct = {id(fact): fact for fact in state.factorised.values()}
            total = float(sum(fact.size_info()[1] for fact in distinct.values()))
            self._store_bytes = (state.version, total)
        return total

    def _record_registration(self, name: str) -> None:
        version = self.version + 1
        self.version = version
        self._append_log(
            LogRecord(version=version, kind="register", relation=name)
        )
        self._publish()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self.relations or name in self.factorised

    def flat(self, name: str) -> Relation:
        """The flat form of a view, flattening a factorisation if needed.

        Flat copies of delta-maintained views refresh lazily here after
        a base-relation change marked them stale.
        """
        if name in self._stale_flat and name in self.factorised:
            # The lazy refresh mutates the catalogue, so it needs the
            # writer lock (reentrant: maintenance calls flat() while
            # already holding it); staleness is re-checked under the
            # lock in case a concurrent reader refreshed first.
            with self._lock:
                if name in self._stale_flat and name in self.factorised:
                    self.relations[name] = _derive_flat(
                        name,
                        self.factorised[name],
                        self.relations.get(name),
                        self._flat_order.get(name, ()),
                    )
                    self._stale_flat.discard(name)
        if name in self.relations:
            return self.relations[name]
        if name in self.factorised:
            return _derive_flat(name, self.factorised[name], None, ())
        raise UnknownRelationError(name)

    def get_factorised(self, name: str) -> "Factorisation | None":
        """The factorised form of a view if one was registered."""
        return self.factorised.get(name)

    def drift_rows(self, name: str) -> float:
        """Cumulative changed rows recorded against a view.

        The statistics cache compares this against the value captured
        when it seeded to decide whether its estimates have drifted.
        """
        return self._drift_rows.get(name, 0.0)

    def _record_drift(
        self, name: str, changed: int, view_deltas: "dict[str, ViewDelta]"
    ) -> None:
        """Accumulate per-view changed-row counts (writer lock held)."""
        from repro.ivm.maintain import drift_magnitude

        self._drift_rows[name] = self._drift_rows.get(name, 0.0) + changed
        for view_name, delta in view_deltas.items():
            if view_name == name:
                continue  # the base bump above already counted it
            rows_now = 0
            if delta.rebuilt:
                fact = self.factorised.get(view_name)
                rows_now = fact.tuple_count() if fact is not None else 0
            self._drift_rows[view_name] = self._drift_rows.get(
                view_name, 0.0
            ) + drift_magnitude(delta, rows_now)

    def schema(self, name: str) -> tuple[str, ...]:
        """Attribute names of a view, whichever representation exists."""
        if name in self.relations:
            return self.relations[name].schema
        if name in self.factorised:
            return tuple(self.factorised[name].schema())
        raise UnknownRelationError(name)

    def names(self) -> list[str]:
        """All registered view names (flat and factorised, deduplicated)."""
        return sorted(set(self.relations) | set(self.factorised))

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(
        self,
        relation: str,
        rows: Iterable[Sequence[Any]],
        columns: Sequence[str] | None = None,
    ) -> ApplyReport:
        """Insert rows (skipping ones already present); returns a report."""
        from repro.ivm.delta import Delta

        return self.apply(Delta.insert(relation, rows, columns))

    def delete(
        self,
        relation: str,
        rows: Iterable[Sequence[Any]] | None = None,
        where: "Callable[[dict], bool] | Sequence | None" = None,
    ) -> ApplyReport:
        """Delete rows (by value, by predicate, or all); returns a report."""
        from repro.ivm.delta import Delta

        return self.apply(Delta.delete(relation, rows, where))

    def apply(self, delta: "Delta | Insertion | Deletion") -> ApplyReport:
        """Apply a batch of changes, maintaining every factorised view.

        Every change is validated up front (relation existence, column
        lists, row arities), so a malformed delta raises before any
        change takes effect; the valid changes then apply in order.
        """
        from repro.ivm.delta import Delta, Deletion, Insertion

        if isinstance(delta, (Insertion, Deletion)):
            delta = Delta((delta,))
        wait_start = clock.now()
        with self._lock:  # the single-writer lock: mutations serialise
            # Measured outside-in: the gap between requesting and
            # holding the lock is the writer's queueing delay.
            _WRITER_WAIT.observe(clock.now() - wait_start)
            for change in delta.changes:
                self._validate_change(change)
            records: list[LogRecord] = []
            inserted = deleted = 0
            for change in delta.changes:
                record = self._apply_change(change)
                records.append(record)
                if record.kind == "insert":
                    inserted += len(record.rows)
                else:
                    deleted += len(record.rows)
            return ApplyReport(self.version, inserted, deleted, tuple(records))

    def changes_since(self, version: int) -> list[LogRecord] | None:
        """Replayable records after ``version``, or None if truncated.

        The log is in version order, so the records are found by
        bisection, not by a scan."""
        with self._log_lock:
            if version < self._log_floor:
                return None
            return self._log[bisect_right(self._log, version, key=_VERSION) :]

    # ------------------------------------------------------------------
    # Snapshots (MVCC readers)
    # ------------------------------------------------------------------
    def snapshot(self, version: "int | None" = None) -> Snapshot:
        """Pin a version and return a read-only :class:`Snapshot` of it.

        With no argument the latest committed state is pinned (the
        common case: a reader joins at "now" and stays there until it
        refreshes).  An explicit ``version`` re-pins a state another
        snapshot is still holding — useful for sibling readers that
        must agree on one version; any other version raises
        :class:`SnapshotError`, since its state is no longer retained.
        """
        with self._log_lock:
            state = self._published
            if version is not None and version != state.version:
                retained = self._retained.get(version)
                if retained is None:
                    raise SnapshotError(
                        f"version {version} is not available for pinning "
                        f"(latest is {state.version}; older versions stay "
                        "available only while another snapshot pins them)"
                    )
                state = retained
            self._pins[state.version] = self._pins.get(state.version, 0) + 1
            self._retained[state.version] = state
            _PINNED.set(len(self._pins))
        return Snapshot(self, state)

    def pinned_versions(self) -> list[int]:
        """Versions currently pinned by live snapshots (sorted)."""
        with self._log_lock:
            return sorted(self._pins)

    def _release_pin(self, version: int) -> None:
        with self._log_lock:
            count = self._pins.get(version, 0) - 1
            if count > 0:
                self._pins[version] = count
            else:
                self._pins.pop(version, None)
                self._retained.pop(version, None)
            _PINNED.set(len(self._pins))

    def _publish(self) -> None:
        """Publish the current catalogue as one atomic immutable state.

        Called by every mutator after its change is complete (under the
        writer lock); the single reference assignment is the commit
        point concurrent readers observe.
        """
        self._published = _CatalogueState(
            self.version,
            dict(self.relations),
            dict(self.factorised),
            frozenset(self._stale_flat),
            self._flat_order,
        )

    # ------------------------------------------------------------------
    # Change application internals
    # ------------------------------------------------------------------
    def _validate_change(self, change) -> None:
        """Checks that read no rows, run for the whole delta up front."""
        from repro.ivm.delta import DeltaError, Insertion

        name = change.relation
        if name not in self:
            raise UnknownRelationError(name)
        for view_name, fact in self.factorised.items():
            dropped = view_name != name and self._dropped_join_attributes(fact, name)
            if dropped:
                # A rebuild factorises the contributors' projections onto
                # the view, and their join is not the projection of the
                # join when the view drops an attribute joining two of them.
                raise DeltaError(
                    f"view {view_name!r} drops {dropped!r}, which join its "
                    f"contributors, so it cannot be maintained under "
                    f"changes to {name!r}"
                )
        schema = self.schema(name)
        if isinstance(change, Insertion):
            columns = change.columns or tuple(schema)
            unknown = [c for c in columns if c not in schema]
            if unknown:
                raise DeltaError(
                    f"unknown columns {unknown!r} for relation {name!r} "
                    f"(schema: {tuple(schema)!r})"
                )
            missing = [c for c in schema if c not in columns]
            if missing:
                raise DeltaError(
                    f"insert into {name!r} misses columns {missing!r}; "
                    "partial rows are not supported"
                )
            arity = len(columns)
        elif change.rows is not None:
            arity = len(schema)
        else:
            return
        rows = change.rows or ()
        for row in rows:
            if len(row) != arity:
                raise DeltaError(
                    f"row arity {len(row)} does not match the {arity} "
                    f"expected columns of {name!r}"
                )

    def _dropped_join_attributes(self, fact: "Factorisation", name: str) -> list[str]:
        """The attributes joining two contributors of ``fact`` that the
        view drops, when ``name`` is one of those contributors."""
        from repro.ivm.maintain import contributors

        keys = contributors(fact)
        if name not in keys:
            return []
        kept = {a for node in fact.ftree.nodes() for a in node.attributes}
        produced = [a for key in sorted(keys) if key in self for a in self.schema(key)]
        return sorted({a for a in produced if a not in kept and produced.count(a) > 1})

    def _apply_change(self, change) -> LogRecord:
        """Apply one change that :meth:`_validate_change` accepted."""
        from repro.ivm.delta import Insertion

        name = change.relation
        schema = self.schema(name)
        if isinstance(change, Insertion):
            rows = self._resolve_insert(change, schema)
            kind = "insert"
        else:
            rows = self._resolve_delete(change, schema)
            kind = "delete"

        # 1. The flat form of the named relation changes first, so that
        #    fragment construction during routed maintenance sees the
        #    post-change base data.  The change is copy-on-write: a new
        #    relation object replaces the catalogue entry, so states
        #    published for earlier versions (pinned by snapshots) keep
        #    their row lists untouched.
        if name in self.relations:
            relation = self.flat(name)  # refreshes a stale copy first
            if kind == "insert":
                new_rows = relation.rows + rows
            else:
                doomed = set(rows)
                new_rows = [
                    row for row in relation.rows if row not in doomed
                ]
            self.relations[name] = Relation.adopt(
                relation.schema, new_rows, name=relation.name
            )

        stats = self.maintenance
        stats.deltas_applied += 1
        if kind == "insert":
            stats.rows_inserted += len(rows)
        else:
            stats.rows_deleted += len(rows)

        # 2. Route the change to every affected factorised view (each
        #    maintained factorisation is a fresh persistent structure;
        #    prior versions keep sharing the unchanged fragments).
        view_deltas: "dict[str, ViewDelta]" = {}
        if rows:
            view_deltas = self._maintain_views(name, kind, rows, schema)
            self._record_drift(name, len(rows), view_deltas)

        # 3. Commit: log first, then the version stamp, then the atomic
        #    state publication snapshots pin against.
        version = self.version + 1
        record = LogRecord(
            version=version,
            kind=kind,
            relation=name,
            columns=tuple(schema),
            rows=tuple(rows),
            view_deltas=view_deltas,
        )
        self._append_log(record)
        self.version = version
        self._publish()
        return record

    def _resolve_insert(self, change, schema: Sequence[str]) -> list[tuple]:
        columns = change.columns or tuple(schema)
        positions = [columns.index(c) for c in schema]
        current = set(self._current_rows(change.relation, schema))
        out: list[tuple] = []
        for row in change.rows:
            ordered = tuple(row[p] for p in positions)
            if ordered in current:
                continue  # set semantics: already present
            current.add(ordered)
            out.append(ordered)
        return out

    def _resolve_delete(self, change, schema: Sequence[str]) -> list[tuple]:
        current = self._current_rows(change.relation, schema)
        present = set(current)
        if change.rows is not None:
            out: list[tuple] = []
            seen: set[tuple] = set()
            for row in change.rows:
                if row in present and row not in seen:
                    seen.add(row)
                    out.append(row)
            return out
        out = []
        seen = set()
        for row in current:
            if row in seen:
                continue
            seen.add(row)
            if change.matches(dict(zip(schema, row))):
                out.append(row)
        return out

    def _current_rows(self, name: str, schema: Sequence[str]) -> list[tuple]:
        if name in self.relations or name in self._stale_flat:
            return list(self.flat(name).rows)
        return list(self.factorised[name].iter_tuples())

    def _maintain_views(
        self, name: str, kind: str, rows: list[tuple], schema: Sequence[str]
    ) -> "dict[str, ViewDelta]":
        from repro.ivm.maintain import (
            IndependenceViolation,
            ViewDelta,
            _Splice,
            contributors,
            direct_delete,
            direct_insert,
            routed_delete,
            routed_insert,
        )

        # A factorisation registered under several names is maintained
        # once per change; every name gets the new object and its delta.
        view_deltas: "dict[str, ViewDelta]" = {}
        maintained: "dict[int, tuple[Factorisation, ViewDelta]]" = {}
        for view_name, fact in list(self.factorised.items()):
            direct = view_name == name
            if not direct and name not in contributors(fact):
                continue
            done = maintained.get(id(fact))
            if done is None:
                splice = _Splice()
                try:
                    if direct and kind == "insert":
                        new_fact = direct_insert(fact, rows, schema, splice)
                    elif direct:
                        new_fact = direct_delete(fact, rows, schema, splice)
                    elif kind == "insert":
                        new_fact = routed_insert(
                            fact, name, rows, schema, self, splice
                        )
                    else:
                        new_fact = routed_delete(
                            fact, name, rows, schema, self, splice
                        )
                    self.maintenance.record_incremental(splice.nodes_touched)
                    _IVM_SPLICE.inc()
                    delta = ViewDelta(
                        name=view_name,
                        schema=tuple(new_fact.schema()),
                        inserted=tuple(splice.inserted),
                        deleted=tuple(splice.deleted),
                        nodes_touched=splice.nodes_touched,
                    )
                except IndependenceViolation as violation:
                    new_fact = self._rebuild_view(
                        view_name, fact, direct, kind, rows, schema
                    )
                    self.maintenance.record_rebuild(violation.reason)
                    _IVM_REBUILD.inc()
                    delta = ViewDelta(
                        name=view_name,
                        schema=tuple(new_fact.schema()),
                        rebuilt=True,
                        reason=violation.reason,
                    )
                done = maintained[id(fact)] = (new_fact, delta)
            new_fact, delta = done
            self.factorised[view_name] = new_fact
            view_deltas[view_name] = replace(delta, name=view_name)
            if not direct and view_name in self.relations:
                # The view's own flat copy is now stale; it refreshes
                # from the maintained factorisation on next access.
                self._stale_flat.add(view_name)
        return view_deltas

    def _rebuild_view(
        self,
        view_name: str,
        fact: "Factorisation",
        direct: bool,
        kind: str,
        rows: list[tuple],
        schema: Sequence[str],
    ) -> "Factorisation":
        """Fall back to re-factorising a view after a failed splice."""
        from repro.core.build import factorise
        from repro.ivm.delta import DeltaError
        from repro.ivm.maintain import contributors

        if any(node.is_aggregate for node in fact.ftree.nodes()):
            raise DeltaError(
                f"view {view_name!r} holds aggregate nodes and cannot be "
                "maintained or rebuilt; re-register it from its defining "
                "query instead"
            )
        attributes = [
            name
            for node in fact.ftree.nodes()
            for name in node.attributes
        ]
        if direct:
            # The flat copy (updated before maintenance) is the source
            # of truth for changes addressed to the view itself; a
            # factorised-only view still needs the change applied to
            # its flattened rows.
            if view_name in self.relations:
                source = self.relations[view_name]
            else:
                # A freshly flattened copy — never shared, so applying
                # the change in place is safe.  Kept on a separate name
                # from the published-catalogue branch above.
                fresh = fact.to_relation(view_name)
                positions = [schema.index(a) for a in fresh.schema]
                changed = [tuple(row[p] for p in positions) for row in rows]
                if kind == "insert":
                    fresh.rows.extend(changed)
                else:
                    doomed = set(changed)
                    fresh.rows = [
                        row for row in fresh.rows if row not in doomed
                    ]
                source = fresh
            rebuilt = factorise(source, fact.ftree)
            if rebuilt.tuple_count() == len(set(source.rows)):
                return rebuilt
            # The updated relation no longer satisfies the f-tree's join
            # dependencies (factorise would silently represent the join
            # of the subtree projections).  Every relation admits a path
            # factorisation (Section 2.1), so re-register over the path
            # f-tree — keeping each node's relation keys for routing.
            return factorise(source, _path_fallback_tree(fact.ftree))
        missing = sorted(key for key in contributors(fact) if key not in self)
        if missing:
            raise DeltaError(
                f"view {view_name!r} needs a rebuild but its contributors "
                f"{missing!r} are not in the catalogue"
            )
        inputs = [self.flat(key) for key in sorted(contributors(fact))]
        produced = [a for relation in inputs for a in relation.schema]
        absent = [a for a in attributes if a not in produced]
        if absent:
            raise DeltaError(
                f"view {view_name!r} cannot be rebuilt: its contributors "
                f"do not produce attributes {absent!r}"
            )
        # The view keeps every attribute joining two of its contributors
        # (:meth:`_validate_change` refuses changes otherwise), so the
        # join of their projections onto the view is the view.
        projected = [
            relation.project([a for a in relation.schema if a in attributes])
            for relation in inputs
        ]
        return factorise(projected, fact.ftree)

    def _append_log(self, record: LogRecord) -> None:
        """Append one record, truncating with respect for pinned readers.

        The log keeps :data:`MAX_LOG` records, but records newer than
        the oldest pinned version are retained beyond that so snapshot
        readers can still replay the gap when they refresh — up to the
        :data:`MAX_PINNED_LOG` hard cap, past which truncation proceeds
        regardless (a too-old pin then re-prepares instead of
        forwarding).
        """
        with self._log_lock:
            self._log.append(record)
            _LOG_RECORDS.set(len(self._log))
            excess = len(self._log) - MAX_LOG
            if excess <= 0:
                return
            pin_floor = min(self._pins) if self._pins else record.version
            hard_excess = len(self._log) - MAX_PINNED_LOG
            dropped = 0
            while dropped < excess:
                if (
                    self._log[dropped].version > pin_floor
                    and dropped >= hard_excess
                ):
                    break
                dropped += 1
            if dropped:
                self._log_floor = self._log[dropped - 1].version
                self._log = self._log[dropped:]
                _LOG_RECORDS.set(len(self._log))
