"""Tests for the Database catalogue."""

import pytest

from repro.core.build import factorise_path
from repro.database import Database, UnknownRelationError
from repro.relational.relation import Relation


@pytest.fixture()
def db():
    database = Database([Relation(("a", "b"), [(1, 2)], "R")])
    database.add_factorised(
        "V", factorise_path(Relation(("x", "y"), [(3, 4), (3, 5)], "V"), "V")
    )
    return database


def test_contains(db):
    assert "R" in db and "V" in db and "missing" not in db


def test_flat_returns_registered(db):
    assert db.flat("R").rows == [(1, 2)]


def test_flat_flattens_factorised_views(db):
    flat = db.flat("V")
    assert sorted(flat.rows) == [(3, 4), (3, 5)]
    assert flat.name == "V"


def test_get_factorised(db):
    assert db.get_factorised("V") is not None
    assert db.get_factorised("R") is None


def test_schema_for_both_forms(db):
    assert db.schema("R") == ("a", "b")
    assert tuple(db.schema("V")) == ("x", "y")
    with pytest.raises(UnknownRelationError):
        db.schema("missing")


def test_unknown_relation_raises(db):
    with pytest.raises(UnknownRelationError):
        db.flat("missing")


def test_names_deduplicated(db):
    db.add_factorised(
        "R", factorise_path(Relation(("a", "b"), [(1, 2)], "R"), "R")
    )
    assert db.names() == ["R", "V"]


def test_add_relation_custom_name():
    database = Database()
    database.add_relation(Relation(("a",), [(1,)], "orig"), name="alias")
    assert "alias" in database and "orig" not in database


def test_store_bytes_gauge_is_computed_on_read_not_on_write(monkeypatch):
    """Writes only mark the gauge stale; a scrape reports the sum of
    ``size_info()[1]`` over the views as they are then."""
    from repro.core.frep import Factorisation
    from repro.data.workloads import build_workload_database
    from repro.obs import metrics, parse_prometheus, render_prometheus

    database = build_workload_database(scale=0.1, seed=3)

    def scraped() -> float:
        families = parse_prometheus(render_prometheus(metrics()))
        return families["repro_store_bytes"]["samples"][("repro_store_bytes", ())]

    def resident() -> float:
        views = [database.get_factorised(name) for name in ("R1", "R2", "R3")]
        return float(sum(view.size_info()[1] for view in views))

    assert scraped() == resident()
    walks = []
    original = Factorisation.size_info
    monkeypatch.setattr(
        Factorisation, "size_info", lambda self: walks.append(1) or original(self)
    )
    before = resident()
    walks.clear()
    database.insert("Orders", [("c_new", "d0000001", "p0001")])
    database.insert("Orders", [("c_new", "d0000002", "p0001")])
    assert walks == []  # no view is walked on the write path
    assert scraped() == resident() != before
    walks.clear()
    assert scraped() == database.store_bytes()
    assert walks == []  # unchanged catalogue: the total is kept
