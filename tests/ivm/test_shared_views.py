"""R1 and R2 share one factorisation: maintained once, split by direct writes.

``build_workload_database`` registers the same object under both names.
A base-relation change maintains it once and hands every name the new
object with its own view delta; a change addressed to one of the views
leaves the other as it was.
"""

import pytest

from repro import connect
from repro.api.engines import SQLiteBackend
from repro.core.build import factorise
from repro.data.workloads import build_workload_database, section6_ftree
from repro.ivm.delta import Delta


def _signature(union):
    return (
        tuple(union.values),
        tuple(tuple(_signature(child) for child in col) for col in union.children),
    )


def _assert_fresh(database):
    """R1 and R2 are one object, singleton-identical to a fresh build."""
    fact = database.get_factorised("R1")
    assert database.get_factorised("R2") is fact
    fresh = factorise(
        [database.flat(name) for name in ("Orders", "Packages", "Items")],
        section6_ftree(),
    )
    assert [_signature(root) for root in fact.roots] == [
        _signature(root) for root in fresh.roots
    ]


def _repricing(database):
    """Re-price an item of a package that has orders."""
    package = database.flat("Orders").rows[0][2]
    item = next(i for p, i in database.flat("Packages").rows if p == package)
    old = dict(database.flat("Items").rows)[item]
    return Delta.delete("Items", [(item, old)]) + Delta.insert(
        "Items", [(item, old + 1)]
    )


def test_routed_changes_splice_the_shared_view_once():
    database = build_workload_database(scale=0.1, seed=7)
    orders = database.flat("Orders").rows
    stats = database.maintenance
    changes = [
        # Orders feeds R1/R2 (one object) and R3: two splices, not three.
        (Delta.insert("Orders", [("c900", "dNEW00001", orders[0][2])]), 2),
        (Delta.delete("Orders", [orders[1]]), 2),
        # Items feeds R1/R2 only: one splice per change, not two.
        (_repricing(database), 2),
    ]
    for delta, splices in changes:
        before = stats.incremental
        report = database.apply(delta)
        assert stats.incremental - before == splices
        assert report.rebuilds == 0
        for record in report.records:
            deltas = record.view_deltas
            assert {"R1", "R2"} <= set(deltas)
            assert deltas["R1"].name == "R1" and deltas["R2"].name == "R2"
            assert deltas["R1"].added == deltas["R2"].added
            assert deltas["R1"].removed == deltas["R2"].removed
            assert deltas["R1"].added or deltas["R1"].removed
        _assert_fresh(database)


@pytest.mark.parametrize("changed, other", [("R1", "R2"), ("R2", "R1")])
def test_a_direct_change_to_one_view_leaves_the_other(changed, other):
    database = build_workload_database(scale=0.1, seed=7)
    shared = database.get_factorised(other)
    row = database.flat(changed).rows[0]
    report = database.delete(changed, [row])
    assert set(report.records[0].view_deltas) == {changed}
    assert database.get_factorised(other) is shared
    assert database.get_factorised(changed) is not shared
    assert row not in database.flat(changed)
    assert database.get_factorised(changed).to_relation() == database.flat(changed)
    assert row in database.flat(other)
    assert shared.to_relation() == database.flat(other)


def test_a_forwarding_sqlite_backend_receives_both_views_deltas():
    database = build_workload_database(scale=0.1, seed=7)
    backend = SQLiteBackend()
    backend.prepare(database)
    try:
        version = database.version
        package = database.flat("Orders").rows[0][2]
        database.insert("Orders", [("c900", "dNEW00001", package)])
        database.apply(_repricing(database))
        assert backend.forward(database.changes_since(version), database)
        for name in ("R1", "R2"):
            schema = database.schema(name)
            columns = ", ".join(f'"{a}"' for a in schema)
            table = backend.connection.execute(
                f'SELECT {columns} FROM "{name}"'
            ).fetchall()
            assert sorted(table) == sorted(database.flat(name).rows)
            assert ("c900", "dNEW00001", package) in {row[:3] for row in table}
    finally:
        backend.close()


def test_a_repricing_enumerates_no_view_delta_rows():
    # No sqlite backend and no live view reads the rows: the deltas stay
    # factorised, and drift is counted on them.
    database = build_workload_database(scale=0.1, seed=7)
    session = connect(database)
    sql = "SELECT customer, SUM(price) AS revenue FROM R1 GROUP BY customer"
    session.sql(sql)
    report = session.apply(_repricing(database))
    session.sql(sql)
    deltas = [d for record in report.records for d in record.view_deltas.values()]
    assert deltas and all(d.inserted or d.deleted for d in deltas)
    assert not any("added" in vars(d) or "removed" in vars(d) for d in deltas)
    assert database.drift_rows("R1") > 0
