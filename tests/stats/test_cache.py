"""The drift-aware statistics cache: hits, epochs, invalidation.

Drift thresholds follow ``max(DRIFT_MIN_ROWS, DRIFT_FRACTION × rows at
seed time)``; epochs are monotone and survive both eviction and
``clear()`` so prepared-query fingerprints never observe a rollback.
"""

from __future__ import annotations

import gc

import pytest

from repro.database import Database
from repro.relational.relation import Relation
from repro.stats import DRIFT_FRACTION, DRIFT_MIN_ROWS, StatsCache
from repro.stats.cache import _HIT, _INVALIDATE_DRIFT, _REOPT_DRIFT


def _database(rows=None):
    rows = rows if rows is not None else [(i, i % 4) for i in range(40)]
    return Database([Relation(("k", "m"), rows, name="R")])


def test_repeat_lookup_hits_at_constant_version():
    database = _database()
    cache = StatsCache()
    first = cache.relation_stats(database, "R")
    before = _HIT._sample()
    second = cache.relation_stats(database, "R")
    assert second is first
    assert _HIT._sample() == before + 1


def test_unknown_relation_returns_none():
    cache = StatsCache()
    assert cache.relation_stats(_database(), "nope") is None


def test_small_drift_restamps_without_invalidation():
    database = _database()
    cache = StatsCache()
    first = cache.relation_stats(database, "R")
    assert first is not None
    database.insert("R", [(100, 0)])  # 1 < max(8, 0.25×40)
    before = _INVALIDATE_DRIFT._sample()
    second = cache.relation_stats(database, "R")
    assert second is first
    assert _INVALIDATE_DRIFT._sample() == before
    assert cache.epochs_for(database, ["R"]) == (("R", 0),)


def test_drift_past_threshold_bumps_epoch_and_reseeds():
    database = _database()
    cache = StatsCache()
    first = cache.relation_stats(database, "R")
    threshold = max(DRIFT_MIN_ROWS, DRIFT_FRACTION * first.rows)
    database.insert("R", [(1000 + i, 0) for i in range(int(threshold) + 1)])
    invalidations = _INVALIDATE_DRIFT._sample()
    reopts = _REOPT_DRIFT._sample()
    second = cache.relation_stats(database, "R")
    assert second is not first
    assert second.rows == first.rows + int(threshold) + 1
    assert _INVALIDATE_DRIFT._sample() == invalidations + 1
    assert _REOPT_DRIFT._sample() == reopts + 1
    assert cache.epochs_for(database, ["R"]) == (("R", 1),)


def test_epochs_for_detects_drift_lazily():
    """The fingerprint hook itself must bump the epoch — that is what
    invalidates a cached plan before any stats lookup happens."""
    database = _database()
    cache = StatsCache()
    cache.relation_stats(database, "R")
    database.insert("R", [(2000 + i, 0) for i in range(30)])
    assert cache.epochs_for(database, ["R"]) == (("R", 1),)
    # Idempotent at constant version: no second bump.
    assert cache.epochs_for(database, ["R"]) == (("R", 1),)


def test_epochs_survive_clear():
    database = _database()
    cache = StatsCache()
    cache.relation_stats(database, "R")
    database.insert("R", [(3000 + i, 0) for i in range(30)])
    assert cache.epochs_for(database, ["R"]) == (("R", 1),)
    cache.clear()
    assert len(cache) == 0
    assert cache.epochs_for(database, ["R"]) == (("R", 1),)


def test_schema_change_invalidates_entry():
    database = _database()
    cache = StatsCache()
    first = cache.relation_stats(database, "R")
    assert first.attributes.keys() == {"k", "m"}
    database.add_relation(
        Relation(("k", "m", "extra"), [(1, 2, 3)], name="R")
    )
    second = cache.relation_stats(database, "R")
    assert second is not first
    assert second.attributes.keys() == {"k", "m", "extra"}


def test_collected_database_never_lends_its_statistics():
    """A new database at a dead one's address (same version, same
    relation name) must seed its own statistics: the process-global
    cache and the published gauges key on ``Database.token``."""
    from repro.stats import stats_cache

    cache = stats_cache()
    cache.clear()
    rounds = 120
    tokens, addresses = set(), set()
    # Each round's full collection frees the dead database; with the
    # session's heap frozen it walks only what this loop allocated.
    gc.freeze()
    try:
        for round_ in range(rounds):
            width = 2 + round_ % 3
            schema = tuple(f"c{i}" for i in range(width))
            rows = [tuple(range(j, j + width)) for j in range(width * 5)]
            database = Database([Relation(schema, rows, name="R")])
            stats = cache.relation_stats(database, "R")
            assert tuple(stats.attributes) == schema
            assert stats.rows == len(rows)
            assert all(entry.total for entry in stats.attributes.values())
            tokens.add(database.token)
            addresses.add(id(database))
            del database, stats
            gc.collect()
    finally:
        gc.unfreeze()
    assert len(tokens) == rounds
    if len(addresses) == rounds:
        pytest.skip("the allocator reused no address: scenario not exercised")


def test_lru_eviction_is_bounded():
    cache = StatsCache()
    relations = [
        Relation(("k",), [(i,)], name=f"R{i}") for i in range(70)
    ]
    database = Database(relations)
    for relation in relations:
        cache.relation_stats(database, relation.name)
    assert len(cache) <= 64
