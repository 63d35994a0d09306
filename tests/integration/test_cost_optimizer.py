"""Cost-based optimisation: parity, drift adaptivity, plan-cache epochs.

The cost-based strategy must be observationally identical to the static
strategies (same rows, same ordering contracts) across the full named
workload, after IVM deltas, and under the sharded backend — while on a
skewed workload it must pick a measurably smaller f-tree than greedy
and re-optimise when drift invalidates its statistics.
"""

from __future__ import annotations

import random

import pytest

from repro import connect
from repro.core.build import factorise
from repro.core.engine import FDBEngine
from repro.core.ftree import build_ftree
from repro.data.workloads import FULL_WORKLOAD, build_workload_database
from repro.database import Database
from repro.query import Equality, Query
from repro.relational.relation import Relation
from repro.stats import stats_cache
from repro.stats.cache import _REOPT_DRIFT
from tests.shard.test_random_parity import _assert_parity, _random_query

SEED = "cost-optimizer/2013"


@pytest.fixture(scope="module")
def db():
    return build_workload_database(scale=0.1, seed=7)


@pytest.fixture(autouse=True)
def _fresh_stats():
    stats_cache().clear()
    yield
    stats_cache().clear()


# ---------------------------------------------------------------------------
# Full named workload: cost == greedy (and exhaustive on a subset)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(FULL_WORKLOAD))
def test_full_workload_parity_cost_vs_greedy(db, name):
    query = FULL_WORKLOAD[name].query
    greedy = connect(db, engine="fdb", optimizer="greedy").execute(query)
    cost = connect(db, engine="fdb", optimizer="cost").execute(query)
    _assert_parity(query, greedy, cost)


@pytest.mark.parametrize("name", ["Q1", "Q5", "Q8", "Q10", "Q13"])
def test_workload_parity_cost_vs_exhaustive(db, name):
    query = FULL_WORKLOAD[name].query
    exhaustive = connect(db, engine="fdb", optimizer="exhaustive").execute(
        query
    )
    cost = connect(db, engine="fdb", optimizer="cost").execute(query)
    _assert_parity(query, exhaustive, cost)


def test_cost_explain_reports_strategy_and_estimate(db):
    session = connect(db, engine="fdb", optimizer="cost")
    result = session.execute(FULL_WORKLOAD["Q2"].query)
    text = result.explain()
    assert "optimizer: cost" in text
    assert "cost: estimated" in text
    assert "statistics:" in text


@pytest.mark.parametrize("name", ["Q8", "E3"])
def test_view_counts_pick_aggregation_before_restructuring(name):
    """Both shapes need γ and χ↑date.  Swapping first copies every
    package's item subtree under each of its dates; the view's own
    entry counts price that, so the search aggregates first (Section 3)
    and stays within reach of the greedy plan's intermediates — the
    bounds alone made it 23× larger."""
    database = build_workload_database(scale=1.0, seed=7)
    query = FULL_WORKLOAD[name].query
    peaks = {}
    for optimizer in ("cost", "greedy"):
        _, plan, trace = FDBEngine(optimizer=optimizer).execute_traced(
            query, database
        )
        peaks[optimizer] = max(trace.sizes)
        steps = [str(step) for step in plan.steps]
        swap = next(i for i, step in enumerate(steps) if step.startswith("χ"))
        assert any(step.startswith("γ") for step in steps[:swap]), steps
    assert peaks["cost"] <= 2 * peaks["greedy"]


# ---------------------------------------------------------------------------
# Parity after IVM deltas
# ---------------------------------------------------------------------------
def test_parity_after_ivm_deltas():
    rng = random.Random(SEED + "/deltas")
    database = build_workload_database(scale=0.1, seed=23)
    greedy = connect(database, engine="fdb", optimizer="greedy")
    cost = connect(database, engine="fdb", optimizer="cost")
    packages = sorted({row[2] for row in database.flat("Orders").rows})
    for step in range(6):
        if step % 2 == 0:
            row = (f"c{step:03d}", f"dCST{step:05d}", rng.choice(packages))
            greedy.insert("Orders", [row])
        else:
            greedy.delete("Orders", [rng.choice(database.flat("Orders").rows)])
        for _ in range(3):
            query = _random_query(rng, database)
            _assert_parity(query, greedy.execute(query), cost.execute(query))


# ---------------------------------------------------------------------------
# Sharded backend with merged statistics
# ---------------------------------------------------------------------------
def test_sharded_parity_with_cost_optimizer(db):
    rng = random.Random(SEED + "/shards")
    reference = connect(db, engine="fdb", optimizer="greedy")
    parallel = connect(
        db, engine="fdb-parallel", shards=3, workers=0, optimizer="cost"
    )
    for _ in range(15):
        query = _random_query(rng, db)
        _assert_parity(
            query, reference.execute(query), parallel.execute(query)
        )


# ---------------------------------------------------------------------------
# The skewed workload: drift-triggered re-optimisation
# ---------------------------------------------------------------------------
def _block(j, a_vals, xs, c_vals, ys):
    """A complete sub-product for one ``j``: keeps V factorisable over
    the registered tree j → (a → x, c → y)."""
    left = [(a, x) for a in a_vals for x in xs]
    right = [(c, y) for c in c_vals for y in ys]
    return [(j, a, x, c, y) for (a, x) in left for (c, y) in right]


def _skew_database():
    rows = []
    for j in range(4):
        rows += _block(
            j,
            [f"a{j}_{i}" for i in range(2)],
            [0, 1],  # x: 2 distinct values initially
            [f"c{j}_{i}" for i in range(2)],
            list(range(6)),  # y: 6 distinct values throughout
        )
    relation = Relation(("j", "a", "x", "c", "y"), rows, name="V")
    tree = build_ftree([("j", [("a", ["x"]), ("c", ["y"])])])
    database = Database([relation])
    database.add_factorised("V", factorise(relation, tree, check=True))
    return database


def _skew_rows():
    """Complete blocks for new j values that explode x's distinct count
    (60 fresh values) while y keeps its small domain."""
    rows = []
    for j in (100, 101):
        rows += _block(
            j,
            [f"a{j}"],
            [1000 + j * 100 + k for k in range(30)],
            [f"c{j}"],
            list(range(6)),
        )
    return rows


SKEW_QUERY = Query(relations=("V",), equalities=(Equality("x", "y"),))


def test_drift_triggers_reoptimisation_to_smaller_plan():
    database = _skew_database()
    greedy = FDBEngine(optimizer="greedy")
    cost = FDBEngine(optimizer="cost")

    _, plan_before, _ = cost.execute_traced(SKEW_QUERY, database)
    reopts = _REOPT_DRIFT._sample()
    report = database.insert("V", _skew_rows())
    assert database.drift_rows("V") >= report.inserted

    greedy_rel, _, greedy_trace = greedy.execute_traced(SKEW_QUERY, database)
    cost_rel, plan_after, cost_trace = cost.execute_traced(
        SKEW_QUERY, database
    )
    # The drift invalidation fired and produced a different plan…
    assert _REOPT_DRIFT._sample() == reopts + 1
    assert str(plan_after) != str(plan_before)
    # …that is measurably smaller than greedy's static choice: fewer
    # peak singletons across the intermediate factorisations.
    assert max(cost_trace.sizes) < max(greedy_trace.sizes)
    # And still the same answer (column order is plan-dependent for
    # SELECT *, so align schemas before comparing).
    aligned = cost_rel.project(greedy_rel.schema, dedup=False)
    assert sorted(aligned.rows) == sorted(greedy_rel.rows)


def test_prepared_plan_is_invalidated_by_drift_epochs():
    database = _skew_database()
    # result_cache_size=0: repeated runs must consult the plan path so
    # the reported plan-cache status is meaningful.
    session = connect(
        database, engine="fdb", optimizer="cost", result_cache_size=0
    )
    prepared = session.prepare(SKEW_QUERY)
    prepared.run()
    assert prepared.run().lifecycle.plan_cache == "hit"

    # A below-threshold change keeps the epoch, hence the plan.
    session.insert("V", _block(50, ["a50"], [0], ["c50"], [3]))
    assert prepared.run().lifecycle.plan_cache == "hit"

    # Past the threshold the stats epoch bumps and the fingerprint
    # changes: the retained plan is dropped and re-optimised.
    session.insert("V", _skew_rows())
    assert prepared.run().lifecycle.plan_cache == "miss"
    assert prepared.run().lifecycle.plan_cache == "hit"


def test_greedy_sessions_ignore_stats_epochs():
    database = _skew_database()
    session = connect(
        database, engine="fdb", optimizer="greedy", result_cache_size=0
    )
    prepared = session.prepare(SKEW_QUERY)
    prepared.run()
    session.insert("V", _skew_rows())
    # Statics don't consume statistics: the catalogue shape is all that
    # matters, and it did not change.
    assert prepared.run().lifecycle.plan_cache == "hit"
