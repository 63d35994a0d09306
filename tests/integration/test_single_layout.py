"""One union layout: every union of every view is a ``CUnion``, always.

Registered views are built, maintained, rebuilt, sharded, persisted and
re-planned in the representation the kernels read — there is no second
form to convert from — and ``Database.store_bytes()`` therefore counts
everything resident.  Each state a view can reach is visited here.
"""

import pytest

from repro import connect
from repro.core.frep import CUnion, Factorisation, FactorisationError
from repro.core.io import load_view, save_view
from repro.data.workloads import build_workload_database
from repro.shard.partition import partition_relation
from repro.shard.store import build_shard_factorisations

SQL = "SELECT customer, SUM(price) AS total FROM R1 GROUP BY customer"


def _unions(fact: Factorisation):
    stack = list(fact.roots)
    while stack:
        union = stack.pop()
        yield union
        for column in union.children:
            stack.extend(column)


def _assert_single_layout(fact: Factorisation) -> None:
    assert type(fact) is Factorisation
    assert all(type(union) is CUnion for union in _unions(fact))
    fact.validate()


def _assert_views(database) -> None:
    assert database.factorised
    for fact in database.factorised.values():
        _assert_single_layout(fact)


def _resident(database) -> int:
    return sum(fact.size_info()[1] for fact in database.factorised.values())


def test_validate_rejects_a_union_that_is_not_a_cunion():
    view = build_workload_database(scale=0.05, seed=3).get_factorised("R1")
    with pytest.raises(FactorisationError, match="not a CUnion"):
        Factorisation(view.ftree, [list(view.roots[0].values)]).validate()


def test_registration_routed_writes_and_forced_rebuild():
    database = build_workload_database(scale=0.1, seed=7)
    _assert_views(database)
    with connect(database) as session:
        package = database.flat("Orders").rows[0][2]
        session.insert("Orders", [("c900", "dNEW00001", package)])
        session.delete("Orders", [database.flat("Orders").rows[0]])
        assert database.maintenance.rebuilds == 0  # both were spliced
        _assert_views(database)
        for name, fact in list(database.factorised.items()):
            rebuilt = database._rebuild_view(name, fact, False, "insert", [], ())
            _assert_single_layout(rebuilt)
            assert set(rebuilt.iter_tuples()) == set(fact.iter_tuples())


def test_path_fallback_rebuild():
    database = build_workload_database(scale=0.1, seed=1)
    with connect(database) as session:
        session.delete("R1", [database.flat("R1").rows[0]])
        assert database.maintenance.rebuilds == 1
        _assert_views(database)
        session.insert("Orders", [("c000", "d9999999", "p00000")])
        assert database.maintenance.rebuilds == 1  # routed again afterwards
        _assert_views(database)
        assert sorted(session.sql(SQL).rows) == sorted(
            session.sql(SQL, engine="sqlite").rows
        )


def test_shard_slices_across_the_fork_boundary():
    database = build_workload_database(scale=0.1, seed=7)
    view = database.get_factorised("R1")
    # "date" is not the root: slices break the tree's join dependencies
    # and take the path fallback; "package" slices keep the tree.
    for key in ("package", "date"):
        parts = partition_relation(database.flat("R1"), key, 3)
        jobs = [(part, view.ftree) for part in parts]
        for built in (
            build_shard_factorisations(jobs, workers=0),
            build_shard_factorisations(jobs, workers=2),  # pickled back
        ):
            for part, fact in zip(parts, built):
                _assert_single_layout(fact)
                assert fact.tuple_count() == len(set(part.rows))


def test_saved_view_round_trip(tmp_path):
    database = build_workload_database(scale=0.1, seed=7)
    for name, fact in database.factorised.items():
        path = str(tmp_path / f"{name}.json")
        save_view(fact, path)
        restored = load_view(path)
        _assert_single_layout(restored)
        assert restored.size_info() == fact.size_info()
        assert list(restored.iter_tuples()) == list(fact.iter_tuples())


def test_prepared_rerun_after_a_drift_epoch():
    database = build_workload_database(scale=0.1, seed=7)
    with connect(database, engine="fdb", result_cache_size=0) as session:
        prepared = session.prepare(SQL)
        prepared.run()
        assert prepared.run().lifecycle.plan_cache == "hit"
        package = database.flat("Orders").rows[0][2]
        session.insert(
            "Orders", [(f"c{i:03d}", f"dDRIFT{i:04d}", package) for i in range(150)]
        )
        rerun = prepared.run()
        assert rerun.lifecycle.plan_cache == "miss"  # the epoch moved
        _assert_views(database)
        assert sorted(rerun.rows) == sorted(session.sql(SQL, engine="sqlite").rows)


def test_store_bytes_counts_everything_resident():
    database = build_workload_database(scale=0.1, seed=7)
    assert database.store_bytes() == _resident(database) > 0
    with connect(database) as session:
        session.sql(SQL)
        session.sql("SELECT * FROM R2 ORDER BY package, item LIMIT 10")
        # Reading built nothing that stays: the views are what is read,
        # and they hold their f-tree and their unions, nothing else.
        _assert_views(database)
        assert not hasattr(database.get_factorised("R1"), "__dict__")
        assert database.store_bytes() == _resident(database)
        session.insert("Orders", [("c901", "dNEW00002", "p00000")])
        assert database.store_bytes() == _resident(database)
