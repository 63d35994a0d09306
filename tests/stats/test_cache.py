"""The drift-aware statistics cache: hits, epochs, invalidation, merge.

Drift thresholds follow ``max(DRIFT_MIN_ROWS, DRIFT_FRACTION × rows at
seed time)``; epochs are monotone and survive both eviction and
``clear()`` so prepared-query fingerprints never observe a rollback.
"""

from __future__ import annotations

import gc

import pytest

from repro.database import Database
from repro.relational.relation import Relation
from repro.stats import (
    DRIFT_FRACTION,
    DRIFT_MIN_ROWS,
    StatsCache,
    merge_relation_stats,
)
from repro.stats.cache import _HIT, _INVALIDATE_DRIFT, _REOPT_DRIFT
from repro.stats.model import AttributeStats, RelationStats


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


def test_prime_installs_external_stats():
    database = _database()
    cache = StatsCache()
    merged = RelationStats(
        name="R",
        rows=123,
        attributes={"k": AttributeStats(distinct=99, total=123)},
        source="merged",
    )
    cache.prime(database, {"R": merged})
    assert cache.relation_stats(database, "R") is merged


# ---------------------------------------------------------------------------
# Cross-shard merging
# ---------------------------------------------------------------------------
def _part(name, rows, distinct, histogram=(), complete=False):
    return RelationStats(
        name=name,
        rows=rows,
        attributes={
            "k": AttributeStats(
                distinct=distinct,
                total=rows,
                histogram=histogram,
                complete=complete,
            )
        },
        source="flat",
        singletons=rows,
        resident_bytes=rows * 8,
    )


def test_merge_sums_rows_and_caps_distincts():
    merged = merge_relation_stats(
        [_part("R", 10, 9), _part("R", 6, 6)]
    )
    assert merged.rows == 16
    assert merged.source == "merged"
    assert merged.attributes["k"].distinct == 15  # 9 + 6 < 16
    capped = merge_relation_stats([_part("R", 3, 3), _part("R", 2, 2)])
    assert capped.attributes["k"].distinct == 5
    tight = merge_relation_stats([_part("R", 2, 2), _part("R", 1, 1)])
    assert tight.attributes["k"].distinct == 3
    over = merge_relation_stats([_part("R", 1, 4), _part("R", 1, 4)])
    assert over.attributes["k"].distinct == 2  # capped by cardinality


def test_merge_combines_histograms():
    merged = merge_relation_stats(
        [
            _part("R", 4, 2, histogram=(("a", 3), ("b", 1)), complete=True),
            _part("R", 4, 2, histogram=(("a", 1), ("c", 3)), complete=True),
        ]
    )
    histogram = dict(merged.attributes["k"].histogram)
    assert histogram == {"a": 4, "b": 1, "c": 3}
    assert merged.attributes["k"].complete
    assert merged.singletons == 8
    assert merged.resident_bytes == 64


def test_merge_single_part_relabels():
    merged = merge_relation_stats([_part("R", 5, 5)])
    assert merged.source == "merged"
    assert merged.rows == 5


def test_merge_requires_parts():
    with pytest.raises(ValueError):
        merge_relation_stats([])
