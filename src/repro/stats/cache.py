"""The drift-aware statistics cache behind cost-based optimisation.

Entries are keyed per (database token, relation) and validated the
same way the PR 5 plan cache fingerprints the catalogue: by schema and
registered f-tree signature, so schema changes invalidate naturally.
Each key additionally carries an *epoch* counter that the prepared-
query fingerprint embeds when the engine is cost-based: when the IVM
drift counters show the data has moved past
``max(DRIFT_MIN_ROWS, DRIFT_FRACTION × rows-at-seed)`` changed rows
since an entry was seeded, the epoch bumps, the entry drops, and every
plan costed under the stale statistics re-optimises on its next
prepare — the adaptive loop the ROADMAP asks for.

Lookups at an unchanged database version short-circuit (the catalogue
cannot move without a version bump, so neither can drift), keeping the
per-prepare overhead to one dict probe per relation.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.obs.metrics import metrics
from repro.stats.collect import (
    publish_stats,
    stats_from_factorisation,
    stats_from_flat,
)
from repro.stats.model import RelationStats

# An entry goes stale after this many changed rows since seeding…
DRIFT_MIN_ROWS = 8
# …or this fraction of the cardinality observed at seed time,
# whichever is larger.
DRIFT_FRACTION = 0.25

# Bounded LRU over (database, relation) keys.
CAPACITY = 64

_STATS_EVENTS = metrics().counter(
    "repro_stats_cache_events_total",
    "Statistics cache traffic by event and source "
    "(hit/miss/seed/invalidate × cache/columnar/flat/merged/drift/"
    "schema).",
    ("event", "source"),
)
_HIT = _STATS_EVENTS.labels("hit", "cache")
_MISS = _STATS_EVENTS.labels("miss", "cache")
_SEED_COLUMNAR = _STATS_EVENTS.labels("seed", "columnar")
_SEED_FLAT = _STATS_EVENTS.labels("seed", "flat")
_SEED_MERGED = _STATS_EVENTS.labels("seed", "merged")
_INVALIDATE_DRIFT = _STATS_EVENTS.labels("invalidate", "drift")
_INVALIDATE_SCHEMA = _STATS_EVENTS.labels("invalidate", "schema")

_REOPT = metrics().counter(
    "repro_reoptimizations_total",
    "Plans forced to re-optimise after statistics invalidation.",
    ("reason",),
)
_REOPT_DRIFT = _REOPT.labels("drift")

_SEED_EVENTS = {
    "columnar": _SEED_COLUMNAR,
    "flat": _SEED_FLAT,
    "merged": _SEED_MERGED,
}


def _origin(database):
    """The live database behind a snapshot (drift lives there)."""
    return getattr(database, "database", database)


def _key(database, name: str) -> tuple:
    """Cache key of one relation: the origin's ``token`` is unique for
    the life of the process, where its ``id()`` is recycled once the
    database is collected — and would hand a new database at the same
    address, version and relation name the dead one's entry."""
    return (_origin(database).token, name)


@dataclass
class _Entry:
    stats: RelationStats
    shape: tuple
    version: int
    drift_at_seed: float


class StatsCache:
    """Process-global cache of :class:`RelationStats` records."""

    def __init__(self, capacity: int = CAPACITY) -> None:
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, _Entry]" = OrderedDict()
        # Epochs survive entry eviction: a fingerprint must never see
        # an epoch move backwards.
        self._epochs: dict[tuple, int] = {}

    # ------------------------------------------------------------------
    # Lookup / seed
    # ------------------------------------------------------------------
    def relation_stats(self, database, name: str) -> "RelationStats | None":
        """Statistics for one relation, seeding the cache on miss.

        ``database`` may be a live :class:`~repro.database.Database` or
        a snapshot; entries key on the live origin's token so snapshots
        of the same database share statistics.  Returns ``None`` for unknown
        relations (the optimiser then falls back to asymptotic costs).
        """
        key = _key(database, name)
        version = getattr(database, "version", 0)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        if entry is not None:
            if entry.version == version:
                _HIT.inc()
                return entry.stats
            if self._stale(entry, self._drift(database, name)):
                self._bump(key)
            elif self._shape(database, name) != entry.shape:
                with self._lock:
                    self._entries.pop(key, None)
                _INVALIDATE_SCHEMA.inc()
            else:
                with self._lock:
                    entry.version = version
                _HIT.inc()
                return entry.stats
        _MISS.inc()
        stats = self._seed(database, name)
        if stats is None:
            return None
        self._store(database, key, stats, version)
        publish_stats(_origin(database), version, stats)
        return stats

    def _seed(self, database, name: str) -> "RelationStats | None":
        fact = getattr(database, "factorised", {}).get(name)
        if fact is not None:
            stats = stats_from_factorisation(name, fact)
        else:
            relation = getattr(database, "relations", {}).get(name)
            if relation is None:
                return None
            stats = stats_from_flat(name, relation)
        counter = _SEED_EVENTS.get(stats.source)
        if counter is not None:
            counter.inc()
        return stats

    def _store(self, database, key: tuple, stats, version: int) -> None:
        entry = _Entry(
            stats=stats,
            shape=self._shape(database, key[1]),
            version=version,
            drift_at_seed=self._drift(database, key[1]),
        )
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > CAPACITY:
                self._entries.popitem(last=False)

    # ------------------------------------------------------------------
    # Epochs (consumed by the plan-cache fingerprint)
    # ------------------------------------------------------------------
    def epochs_for(
        self, database, names: Iterable[str]
    ) -> "tuple[tuple[str, int], ...]":
        """Current epoch per relation, applying drift invalidation.

        This is the fingerprint hook: it is called at prepare time, so
        drift past the threshold is detected lazily here — the epoch
        bump changes the fingerprint and the stale plan-cache entry is
        bypassed.
        """
        version = getattr(database, "version", 0)
        out = []
        for name in sorted(set(names)):
            key = _key(database, name)
            with self._lock:
                entry = self._entries.get(key)
            if (
                entry is not None
                and entry.version != version
                and self._stale(entry, self._drift(database, name))
            ):
                self._bump(key)
            with self._lock:
                epoch = self._epochs.get(key, 0)
            out.append((name, epoch))
        return tuple(out)

    def _bump(self, key: tuple) -> None:
        with self._lock:
            self._entries.pop(key, None)
            self._epochs[key] = self._epochs.get(key, 0) + 1
        _INVALIDATE_DRIFT.inc()
        _REOPT_DRIFT.inc()

    # ------------------------------------------------------------------
    # Priming (sharded backends inject merged global statistics)
    # ------------------------------------------------------------------
    def prime(self, database, stats_by_name: Mapping[str, RelationStats]) -> None:
        """Install externally computed statistics (e.g. shard merges)."""
        version = getattr(database, "version", 0)
        for name, stats in stats_by_name.items():
            self._store(database, _key(database, name), stats, version)
            counter = _SEED_EVENTS.get(stats.source)
            if counter is not None:
                counter.inc()

    # ------------------------------------------------------------------
    # Validation helpers
    # ------------------------------------------------------------------
    def _shape(self, database, name: str) -> tuple:
        try:
            schema = tuple(database.schema(name))
        except Exception:
            return (None, None)
        fact = getattr(database, "factorised", {}).get(name)
        if fact is None:
            return (schema, None)
        from repro.plan.cache import ftree_signature

        return (schema, ftree_signature(fact.ftree))

    @staticmethod
    def _drift(database, name: str) -> float:
        origin = _origin(database)
        reader = getattr(origin, "drift_rows", None)
        if reader is None:
            return 0.0
        return float(reader(name))

    @staticmethod
    def _stale(entry: _Entry, drift_now: float) -> bool:
        threshold = max(
            DRIFT_MIN_ROWS, DRIFT_FRACTION * max(entry.stats.rows, 1)
        )
        return drift_now - entry.drift_at_seed >= threshold

    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop every entry (epochs survive so fingerprints stay safe)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


_CACHE = StatsCache()


def stats_cache() -> StatsCache:
    """The process-global statistics cache."""
    return _CACHE
