"""Version-aware plan and factorisation/result caches.

Two complementary caches serve the prepared-query lifecycle:

- :class:`PlanCache` — compiled engine artifacts (the FDB f-plan, the
  sqlite SQL text, ...) keyed on the *canonical* query hash, which is
  parameter-insensitive: one plan serves every binding.  Entries carry
  a :func:`catalogue_fingerprint` — the schemas and f-tree shapes of
  the referenced views — and are bypassed when the catalogue no longer
  matches (a new registration, or an IVM rebuild that switched a view
  to its path-fallback f-tree).  Data changes never evict plans.

- :class:`ResultCache` — fully evaluated results (flat relation or
  result factorisation) keyed on the *bound* hash, stamped with the
  database version they were computed at.  Lookups at a newer version
  consult the IVM change log (:meth:`repro.database.Database.
  changes_since`): if none of the newer records touch a view the query
  reads, the entry is still valid and its stamp is advanced; otherwise
  it is evicted.  That is the fine-grained invalidation the issue asks
  for — an insert into ``Orders`` evicts cached results over ``Orders``
  and every view maintained from it, and nothing else.

Both caches are **snapshot-aware and thread-safe**, so one cache pair
can be shared by every session of a :class:`repro.server.SessionPool`.
Lookups validate against the *reader's* version — the pinned snapshot
a session queries through, not "latest" — and an entry computed under
version ``v`` is never served to a reader pinned at ``u < v`` (it
stays cached for newer readers; the lookup simply misses).  Plans are
snapshot-safe by construction: their catalogue fingerprint is computed
from the reader's pinned catalogue.

Both caches are LRU-bounded; capacity 0 disables a cache entirely.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Hashable, Iterable

from repro.obs.metrics import metrics

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.ftree import FNode, FTree
    from repro.database import Database, LogRecord

# Cache events aggregate across every cache instance in the process.
# Children are pre-bound here so the increments inside the lock-guarded
# lookup/store paths stay allocation-free (linter rule obs-allocation).
_CACHE_EVENTS = metrics().counter(
    "repro_cache_events_total",
    "Plan/result cache events by outcome.",
    ("cache", "event"),
)
_PLAN_HIT = _CACHE_EVENTS.labels("plan", "hit")
_PLAN_MISS = _CACHE_EVENTS.labels("plan", "miss")
_PLAN_INVALIDATION = _CACHE_EVENTS.labels("plan", "invalidation")
_PLAN_EVICTION = _CACHE_EVENTS.labels("plan", "eviction")
_RESULT_HIT = _CACHE_EVENTS.labels("result", "hit")
_RESULT_MISS = _CACHE_EVENTS.labels("result", "miss")
_RESULT_INVALIDATION = _CACHE_EVENTS.labels("result", "invalidation")
_RESULT_EVICTION = _CACHE_EVENTS.labels("result", "eviction")

#: Sentinel distinguishing "no cached artifact" from a cached ``None``
#: (engines without a compile stage legitimately plan to ``None``).
MISS = object()


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one cache."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    evictions: int = 0

    def describe(self) -> str:
        return (
            f"{self.hits} hit(s), {self.misses} miss(es), "
            f"{self.invalidations} invalidation(s), "
            f"{self.evictions} LRU eviction(s)"
        )


def ftree_signature(ftree: "FTree") -> tuple:
    """A hashable structural signature of an f-tree.

    Captures everything plan validity depends on: attribute classes,
    aggregate labels, dependency keys, and child structure.
    """
    return tuple(_node_signature(root) for root in ftree.roots)


def _node_signature(node: "FNode") -> tuple:
    if node.aggregate is not None:
        label: tuple = (
            "γ",
            node.aggregate.name,
            tuple(str(f) for f in node.aggregate.functions),
        )
    else:
        label = tuple(node.attributes)
    return (
        label,
        tuple(sorted(node.keys)),
        tuple(_node_signature(child) for child in node.children),
    )


def catalogue_fingerprint(
    database: "Database", relations: Iterable[str]
) -> tuple:
    """What a compiled plan for a query over ``relations`` depends on.

    Per referenced view: its name, schema, and — when a factorised form
    is registered — the f-tree signature (FDB plans against that tree;
    an IVM rebuild may replace it with the path fallback).
    """
    parts = []
    for name in sorted(set(relations)):
        schema = tuple(database.schema(name))
        registered = database.get_factorised(name)
        shape = (
            ftree_signature(registered.ftree) if registered is not None else None
        )
        parts.append((name, schema, shape))
    return tuple(parts)


class PlanCache:
    """LRU cache of compiled plan artifacts, fingerprint-validated."""

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, tuple[Any, tuple]]" = (
            OrderedDict()
        )

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: Hashable, fingerprint: tuple) -> Any:
        """The cached artifact, or :data:`MISS`.

        A fingerprint mismatch invalidates the entry (the caller
        recompiles and stores the fresh artifact).
        """
        if not self.capacity:
            return MISS
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                _PLAN_MISS.inc()
                return MISS
            artifact, stored_fingerprint = entry
            if stored_fingerprint != fingerprint:
                del self._entries[key]
                self.stats.invalidations += 1
                self.stats.misses += 1
                _PLAN_INVALIDATION.inc()
                _PLAN_MISS.inc()
                return MISS
            self._entries.move_to_end(key)
            self.stats.hits += 1
            _PLAN_HIT.inc()
            return artifact

    def store(self, key: Hashable, artifact: Any, fingerprint: tuple) -> None:
        if not self.capacity:
            return
        with self._lock:
            self._entries[key] = (artifact, fingerprint)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
                _PLAN_EVICTION.inc()

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


@dataclass
class _ResultEntry:
    """One cached result with its validity interval.

    ``floor`` is the version the payload was computed at; ``version``
    is the newest version it has been *validated* against.  Invariant:
    no log record in ``(floor, version]`` touches ``relations``, so the
    payload is correct for any reader pinned anywhere in
    ``[floor, version]`` — and beyond ``version`` after a replay.
    ``artifact`` is the compiled plan the payload was computed with
    (``None`` when there was none), so a hit can render it.
    """

    payload: Any
    version: int
    relations: frozenset
    floor: int = -1
    artifact: Any = None

    def __post_init__(self) -> None:
        if self.floor < 0:
            self.floor = self.version


def _touches(record: "LogRecord", relations: frozenset) -> bool:
    """Whether one log record affects any view in ``relations``."""
    if record.relation in relations:
        return True
    return any(name in relations for name in record.view_deltas)


class ResultCache:
    """LRU cache of evaluated results, invalidated off the change log."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, _ResultEntry]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def entry(self, key: Hashable, database: "Database") -> "_ResultEntry | None":
        """The cached entry if still valid at the reader's version.

        ``database`` may be the live database or a pinned
        :class:`repro.database.Snapshot` — validation runs against
        *its* version.  An entry computed at an older version survives
        exactly when every log record up to the reader's version leaves
        the entry's relations untouched; its stamp then advances so
        later lookups skip the replay.  An entry computed at a *newer*
        version than the reader's pin is never served (that would be a
        stale-read-from-the-future for the pinned reader); it stays
        cached for readers at or past its version.
        """
        if not self.capacity:
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                _RESULT_MISS.inc()
                return None
            if entry.floor > database.version:
                # Computed under a version this pinned reader has not
                # reached; serving it would leak future writes into the
                # snapshot.  Miss without evicting.
                self.stats.misses += 1
                _RESULT_MISS.inc()
                return None
            if entry.version < database.version:
                records = database.changes_since(entry.version)
                if records is None or any(
                    _touches(record, entry.relations) for record in records
                ):
                    del self._entries[key]
                    self.stats.invalidations += 1
                    self.stats.misses += 1
                    _RESULT_INVALIDATION.inc()
                    _RESULT_MISS.inc()
                    return None
                entry.version = database.version
            self._entries.move_to_end(key)
            self.stats.hits += 1
            _RESULT_HIT.inc()
            return entry

    def store(
        self,
        key: Hashable,
        payload: Any,
        database: "Database",
        relations: Iterable[str],
        artifact: Any = None,
    ) -> None:
        if not self.capacity:
            return
        with self._lock:
            self._entries[key] = _ResultEntry(
                payload, database.version, frozenset(relations), artifact=artifact
            )
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
                _RESULT_EVICTION.inc()

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


@dataclass
class SessionCaches:
    """The per-session cache pair, with one switch and two size knobs."""

    plans: PlanCache = field(default_factory=PlanCache)
    results: ResultCache = field(default_factory=ResultCache)

    @classmethod
    def sized(cls, plan_capacity: int, result_capacity: int) -> "SessionCaches":
        return cls(PlanCache(plan_capacity), ResultCache(result_capacity))

    def clear(self) -> None:
        self.plans.clear()
        self.results.clear()

    def describe(self) -> str:
        return (
            f"plan cache: {self.plans.stats.describe()}; "
            f"result cache: {self.results.stats.describe()}"
        )
