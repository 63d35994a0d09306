"""Seeded parity properties of the factorised engine against flat ones.

The batch kernels (`repro.core.kernels`) must be observationally
identical to the flat relational baseline (``rdb``) and to the real
``sqlite3``: same rows, in the same order wherever the query fixes one,
across the full named workload, seeded random queries, and IVM deltas
spliced into the registered views.
Every random source is seeded so failures replay exactly.
"""

import random
from types import SimpleNamespace

import pytest

from repro import connect
from repro.core.engine import FDBEngine, build_inputs
from repro.data.workloads import FULL_WORKLOAD, build_workload_database
from tests.integration.random_queries import assert_parity, random_query

SEED = "columnar-parity/2013"

REFERENCES = ("rdb", "sqlite")


def _assert_same(query, reference, actual):
    """Exact rows, and exact order wherever the query determines it."""
    if query.projection is None and not query.aggregates:
        # ``SELECT *``: each engine lists the columns in its own order.
        assert sorted(reference.schema) == sorted(actual.schema), query
        picks = [reference.schema.index(name) for name in actual.schema]
        reference = SimpleNamespace(
            schema=actual.schema,
            rows=[tuple(row[p] for p in picks) for row in reference.rows],
        )
    assert_parity(query, reference, actual)
    if not query.order_by:
        return
    positions = [actual.schema.index(k.attribute) for k in query.order_by]
    keys = [tuple(row[p] for p in positions) for row in reference.rows]
    assert [tuple(row[p] for p in positions) for row in actual.rows] == keys
    if len(set(keys)) == len(keys):  # no ties: one admissible sequence
        assert list(actual.rows) == list(reference.rows), query


@pytest.fixture(scope="module")
def db():
    return build_workload_database(scale=0.1, seed=7)


# ---------------------------------------------------------------------------
# Full named workload: rows, ordering, trace accounting
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("reference", REFERENCES)
@pytest.mark.parametrize("name", sorted(FULL_WORKLOAD))
def test_full_workload_exact_parity(db, name, reference):
    query = FULL_WORKLOAD[name].query
    expected = connect(db, engine=reference).execute(query)
    _assert_same(query, expected, connect(db, engine="fdb").execute(query))


@pytest.mark.parametrize("name", sorted(FULL_WORKLOAD))
def test_trace_size_accounting_matches(db, name):
    """The trace's singleton count per plan step is the size of the
    factorisation that step produced (an independent walk); resident
    bytes are always accounted (> 0)."""
    query = FULL_WORKLOAD[name].query
    engine = FDBEngine(output="flat")
    compiled = engine.compile(query, db)
    _, plan, trace = engine.execute_planned(compiled, query, db)
    fact = build_inputs(compiled, db)
    sizes = []
    for step in plan:
        fact = step.place(fact.ftree).run(fact)
        sizes.append(fact.size())
    assert len(trace.steps) == len(trace.sizes) == len(trace.bytes)
    assert trace.sizes[len(trace.sizes) - len(sizes):] == sizes
    assert all(b > 0 for b in trace.bytes)


def test_registered_views_report_their_singletons(db):
    for name in db.factorised:
        view = db.get_factorised(name)
        singletons, resident = view.size_info()
        assert singletons == view.size()
        assert resident > 0
        assert view.tuple_count() == len(set(db.flat(name).rows))


# ---------------------------------------------------------------------------
# Seeded random queries
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("reference", REFERENCES)
def test_seeded_random_queries_agree(db, reference):
    rng = random.Random(SEED)
    expected = connect(db, engine=reference)
    fdb = connect(db, engine="fdb")
    for _ in range(40):
        query = random_query(rng, db)
        _assert_same(query, expected.execute(query), fdb.execute(query))


# ---------------------------------------------------------------------------
# IVM deltas spliced into the registered views
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("reference", REFERENCES)
def test_parity_after_ivm_deltas(reference):
    rng = random.Random(SEED + "/deltas")
    database = build_workload_database(scale=0.1, seed=23)
    fdb = connect(database, engine="fdb")
    expected = connect(database, engine=reference)
    packages = sorted({row[2] for row in database.flat("Orders").rows})
    for step in range(8):
        if step % 2 == 0:
            row = (f"c{step:03d}", f"dCOL{step:05d}", rng.choice(packages))
            fdb.insert("Orders", [row])
        else:
            victim = rng.choice(database.flat("Orders").rows)
            fdb.delete("Orders", [victim])
        for _ in range(3):
            query = random_query(rng, database)
            _assert_same(query, expected.execute(query), fdb.execute(query))
