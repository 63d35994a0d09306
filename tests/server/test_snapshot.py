"""Unit tests of the MVCC core: Database.snapshot and pinned reads."""

from __future__ import annotations

import pytest

import repro.database as database_module
from repro.database import Database, Snapshot, SnapshotError
from repro.plan.cache import ResultCache
from repro.relational.relation import Relation


def test_snapshot_pins_the_committed_version(pizzeria):
    snap = pizzeria.snapshot()
    assert isinstance(snap, Snapshot)
    assert snap.version == pizzeria.version
    before = set(snap.flat("Items").rows)

    pizzeria.insert("Items", [("truffle", 9)])
    assert pizzeria.version == snap.version + 1

    # The pinned reader still observes the pre-commit state, the origin
    # the new one.
    assert set(snap.flat("Items").rows) == before
    assert len(pizzeria.flat("Items").rows) == len(before) + 1
    snap.release()


def test_snapshot_catalogue_surface_matches_origin(pizzeria):
    snap = pizzeria.snapshot()
    assert snap.names() == pizzeria.names()
    assert "Items" in snap
    assert snap.schema("Items") == pizzeria.schema("Items")
    assert snap.get_factorised("R") is pizzeria.get_factorised("R")
    snap.release()


def test_snapshot_sees_stale_views_at_its_own_pin(pizzeria):
    """A maintained view read off an old snapshot shows the old rows."""
    snap = pizzeria.snapshot()
    old_rows = set(snap.flat("R").rows)

    pizzeria.insert("Orders", [("Nina", "Saturday", "Margherita")])

    assert set(snap.flat("R").rows) == old_rows
    assert set(pizzeria.flat("R").rows) != old_rows
    snap.release()


def test_snapshot_is_read_only(pizzeria):
    snap = pizzeria.snapshot()
    with pytest.raises(SnapshotError):
        snap.insert("Items", [("nope", 1)])
    with pytest.raises(SnapshotError):
        snap.delete("Items", [("base", 6)])
    with pytest.raises(SnapshotError):
        snap.add_relation(Relation(("a",), [(1,)], "X"))
    snap.release()


def test_release_and_pin_bookkeeping(pizzeria):
    v = pizzeria.version
    first = pizzeria.snapshot()
    second = pizzeria.snapshot()
    assert pizzeria.pinned_versions() == [v]

    first.release()
    assert pizzeria.pinned_versions() == [v]  # second still holds it
    second.release()
    assert pizzeria.pinned_versions() == []

    # release is idempotent; reads keep working off the captured state.
    second.release()
    assert second.released
    assert "Items" in second


def test_snapshot_context_manager_releases(pizzeria):
    with pizzeria.snapshot() as snap:
        assert pizzeria.pinned_versions() == [snap.version]
    assert pizzeria.pinned_versions() == []


def test_snapshot_at_a_retained_version(pizzeria):
    old = pizzeria.snapshot()
    pizzeria.insert("Items", [("truffle", 9)])
    new = pizzeria.snapshot()
    assert new.version == old.version + 1

    # While `old` pins its version, a sibling pin at that version works.
    sibling = pizzeria.snapshot(version=old.version)
    assert sibling.version == old.version
    assert set(sibling.flat("Items").rows) == set(old.flat("Items").rows)

    for snap in (old, new, sibling):
        snap.release()
    with pytest.raises(SnapshotError):
        pizzeria.snapshot(version=old.version)  # no longer retained


def test_snapshot_changes_since_stops_at_the_pin(pizzeria):
    v0 = pizzeria.version
    snap_before = pizzeria.snapshot()
    pizzeria.insert("Items", [("truffle", 9)])
    snap_after = pizzeria.snapshot()
    pizzeria.insert("Items", [("olives", 2)])

    assert snap_before.changes_since(v0) == []
    records = snap_after.changes_since(v0)
    assert [record.version for record in records] == [v0 + 1]
    # The origin sees both commits.
    assert len(pizzeria.changes_since(v0)) == 2
    snap_before.release()
    snap_after.release()


def test_pins_extend_log_retention(monkeypatch, pizzeria):
    """The change log keeps records a pinned reader may still replay."""
    monkeypatch.setattr(database_module, "MAX_LOG", 4)
    snap = pizzeria.snapshot()
    pinned_version = snap.version
    for index in range(10):
        pizzeria.insert("Items", [(f"extra-{index}", index)])

    records = pizzeria.changes_since(pinned_version)
    assert records is not None
    assert [r.version for r in records] == [
        pinned_version + 1 + i for i in range(10)
    ]

    # Once the pin is gone, truncation applies on the next append.
    snap.release()
    pizzeria.insert("Items", [("last", 99)])
    assert pizzeria.changes_since(pinned_version) is None


def test_hard_cap_beats_a_stuck_pin(monkeypatch, pizzeria):
    monkeypatch.setattr(database_module, "MAX_LOG", 2)
    monkeypatch.setattr(database_module, "MAX_PINNED_LOG", 4)
    snap = pizzeria.snapshot()
    for index in range(8):
        pizzeria.insert("Items", [(f"extra-{index}", index)])
    # The log was truncated past the pin: the snapshot degrades to a
    # full-reload answer (None), it does not block writers.
    assert pizzeria.changes_since(snap.version) is None
    snap.release()


def test_result_cache_never_serves_the_future(pizzeria):
    """Satellite: an entry written under v must miss for a pin u < v."""
    cache = ResultCache(capacity=8)
    old = pizzeria.snapshot()
    pizzeria.insert("Items", [("truffle", 9)])

    cache.store("q", "computed-at-new", pizzeria, relations=("Items",))
    assert cache.entry("q", pizzeria).payload == "computed-at-new"

    # The pinned reader must not see a result computed after its pin —
    # and the miss must not evict the entry for newer readers.
    assert cache.entry("q", old) is None
    assert cache.entry("q", pizzeria).payload == "computed-at-new"
    old.release()


def test_result_cache_validates_entry_against_reader_pin(pizzeria):
    cache = ResultCache(capacity=8)
    snap = pizzeria.snapshot()
    cache.store("items", "old-items", snap, relations=("Items",))
    cache.store("pizzas", "old-pizzas", snap, relations=("Pizzas",))

    pizzeria.insert("Items", [("truffle", 9)])
    fresh = pizzeria.snapshot()

    # The write touched Items: evicted for the fresh reader.  Pizzas is
    # untouched: still served, at both pins.
    assert cache.entry("items", fresh) is None
    assert cache.entry("pizzas", fresh).payload == "old-pizzas"
    assert cache.entry("pizzas", snap).payload == "old-pizzas"
    snap.release()
    fresh.release()


def test_cow_mutation_does_not_alias_old_rows():
    db = Database()
    db.add_relation(Relation(("a", "b"), [(1, 10), (2, 20)], "T"))
    snap = db.snapshot()
    old_relation = snap.flat("T")
    db.insert("T", [(3, 30)])
    db.delete("T", [(1, 10)])
    # The pinned Relation object is untouched by both mutations.
    assert set(old_relation.rows) == {(1, 10), (2, 20)}
    assert set(db.flat("T").rows) == {(2, 20), (3, 30)}
    snap.release()


def test_changes_since_bisects_to_the_records_a_full_scan_finds(monkeypatch, pizzeria):
    """Across log truncation and pinned snapshots, the bisected records
    are those of a scan over the whole version-ordered log."""
    monkeypatch.setattr(database_module, "MAX_LOG", 4)
    monkeypatch.setattr(database_module, "MAX_PINNED_LOG", 12)

    def scanned(version, pin=None):
        if version < pizzeria._log_floor:
            return None
        return [
            record
            for record in pizzeria._log
            if record.version > version and (pin is None or record.version <= pin)
        ]

    snapshots = []
    for index in range(20):
        pizzeria.insert("Items", [(f"extra-{index}", index)])
        if index % 6 == 0:
            snapshots.append(pizzeria.snapshot())
        if index == 13:
            snapshots.pop(0).release()  # the oldest pin goes: truncation resumes
        for version in range(pizzeria.version + 1):
            assert pizzeria.changes_since(version) == scanned(version)
            for snap in snapshots:
                want = [] if version >= snap.version else scanned(version, snap.version)
                assert snap.changes_since(version) == want
    assert pizzeria.changes_since(0) is None  # truncated at some point
    for snap in snapshots:
        snap.release()
