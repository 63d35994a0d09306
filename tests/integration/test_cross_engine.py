"""Cross-engine integration: FDB (both modes), RDB (both modes), sqlite3.

Every Figure 3 query — plus targeted variants — must produce identical
results on every engine, both from the factorised materialised views
and from flat input.
"""

import sqlite3
from dataclasses import replace

import pytest

from repro.core.engine import FDBEngine
from repro.data.workloads import WORKLOAD
from repro.relational.engine import RDBEngine
from repro.relational.plans import eager_aggregation
from repro.sql.generator import query_to_sql

from tests.conftest import assert_same_relation


@pytest.fixture(scope="module")
def db():
    from repro.data.workloads import build_workload_database

    return build_workload_database(scale=0.1, seed=7)


@pytest.fixture(scope="module")
def connection(db):
    con = sqlite3.connect(":memory:")
    for name in db.names():
        relation = db.flat(name)
        cols = ", ".join(f'"{a}"' for a in relation.schema)
        con.execute(f'CREATE TABLE "{name}" ({cols})')
        marks = ",".join("?" * len(relation.schema))
        con.executemany(f'INSERT INTO "{name}" VALUES ({marks})', relation.rows)
    return con


@pytest.mark.parametrize("name", list(WORKLOAD))
def test_all_engines_agree_on_views(db, connection, name):
    query = WORKLOAD[name].query
    reference = RDBEngine("sort").execute(query, db)

    flat = FDBEngine().execute(query, db)
    assert_same_relation(flat, reference)

    factorised = FDBEngine(output="factorised").execute(query, db)
    assert_same_relation(factorised.to_relation(), reference)

    hashed = RDBEngine("hash").execute(query, db)
    assert_same_relation(hashed, reference)

    rows = connection.execute(query_to_sql(query)).fetchall()
    assert len(rows) == len(reference)


@pytest.mark.parametrize("name", list(WORKLOAD))
def test_ordering_agrees(db, name):
    query = WORKLOAD[name].query
    if not query.order_by:
        pytest.skip("unordered query")
    reference = RDBEngine().execute(query, db)
    result = FDBEngine().execute(query, db)
    keys = [k.attribute for k in query.order_by]
    ref_cols = [
        tuple(r[reference.schema.index(k)] for k in keys) for r in reference.rows
    ]
    out_cols = [
        tuple(r[result.schema.index(k)] for k in keys) for r in result.rows
    ]
    assert ref_cols == out_cols


@pytest.mark.parametrize("name", ["Q1", "Q2", "Q3", "Q4", "Q5"])
def test_flat_input_agreement(db, name):
    query = replace(
        WORKLOAD[name].query, relations=("Orders", "Packages", "Items")
    )
    reference = RDBEngine().execute(query, db)
    assert_same_relation(FDBEngine().execute(query, db), reference)
    assert_same_relation(eager_aggregation(query, db).execute(db), reference)


@pytest.mark.parametrize("name", ["Q10", "Q11", "Q12", "Q13"])
def test_limits_agree(db, name):
    query = WORKLOAD[name].query.with_limit(10)
    reference = RDBEngine().execute(query, db)
    result = FDBEngine().execute(query, db)
    assert len(result) == len(reference) == 10
    keys = [k.attribute for k in query.order_by]
    ref_cols = [
        tuple(r[reference.schema.index(k)] for k in keys) for r in reference.rows
    ]
    out_cols = [
        tuple(r[result.schema.index(k)] for k in keys) for r in result.rows
    ]
    assert ref_cols == out_cols


def test_min_max_avg_on_views(db):
    from repro.query import Query, aggregate

    query = Query(
        relations=("R1",),
        group_by=("package",),
        aggregates=(
            aggregate("min", "price", "lo"),
            aggregate("max", "price", "hi"),
            aggregate("avg", "price", "mean"),
            aggregate("count", None, "n"),
        ),
    )
    reference = RDBEngine().execute(query, db)
    assert_same_relation(FDBEngine().execute(query, db), reference)
    assert_same_relation(
        FDBEngine(output="factorised").execute(query, db).to_relation(),
        reference,
    )


def test_selection_on_views(db):
    from repro.query import Comparison, Query, aggregate

    query = Query(
        relations=("R1",),
        comparisons=(Comparison("price", ">", 10),),
        group_by=("customer",),
        aggregates=(aggregate("sum", "price", "s"),),
    )
    reference = RDBEngine().execute(query, db)
    assert_same_relation(FDBEngine().execute(query, db), reference)


def test_descending_orders(db):
    query = WORKLOAD["Q13"].query.with_order(
        [("customer", "desc"), "date", ("package", "desc")]
    )
    reference = RDBEngine().execute(query, db)
    result = FDBEngine().execute(query, db)
    keys = [k.attribute for k in query.order_by]
    ref_cols = [
        tuple(r[reference.schema.index(k)] for k in keys) for r in reference.rows
    ]
    out_cols = [
        tuple(r[result.schema.index(k)] for k in keys) for r in result.rows
    ]
    assert ref_cols == out_cols


@pytest.mark.parametrize("optimizer", ["greedy", "exhaustive", "cost"])
@pytest.mark.parametrize("engine", ["fdb", "fdb-factorised"])
def test_sums_after_a_path_fallback_rebuild(engine, optimizer):
    """Deleting one row of R1 breaks its join dependency, so the view is
    rebuilt over its path f-tree; that tree must not keep claiming
    ``item ⊥ date | package``, or the next χ splits a dependent subtree
    (c000 came out as 536 instead of 553)."""
    from repro import connect
    from repro.data.workloads import build_workload_database

    database = build_workload_database(scale=0.1, seed=1)
    sql = "SELECT customer, SUM(price) AS total FROM R1 GROUP BY customer"
    with connect(database, optimizer=optimizer) as session:
        session.delete("R1", [database.flat("R1").rows[0]])
        assert database.maintenance.rebuilds == 1
        want = sorted(session.sql(sql, engine="sqlite").rows)
        assert sorted(session.sql(sql, engine=engine).rows) == want
        # The keys that route base-relation deltas survive the rebuild.
        session.insert("Orders", [("c000", "d9999999", "p00000")])
        assert database.maintenance.rebuilds == 1
        assert sorted(session.sql(sql, engine=engine).rows) == sorted(
            session.sql(sql, engine="sqlite").rows
        )
