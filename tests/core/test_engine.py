"""Unit tests for the FDB engine facade."""

import pytest

from repro.core.engine import FactorisedResult, FDBEngine
from repro.database import Database
from repro.query import Comparison, Equality, Having, Query, QueryError, aggregate
from repro.relational.engine import RDBEngine
from repro.relational.relation import Relation

from tests.conftest import assert_same_relation


@pytest.fixture()
def engines():
    return FDBEngine(), FDBEngine(output="factorised"), RDBEngine()


def test_invalid_output_mode():
    with pytest.raises(ValueError):
        FDBEngine(output="bogus")


def test_aggregate_on_view_uses_factorisation(pizzeria, engines):
    fdb, _, rdb = engines
    q = Query(
        relations=("R",),
        group_by=("customer",),
        aggregates=(aggregate("sum", "price", "revenue"),),
    )
    result, plan, _ = fdb.execute_traced(q, pizzeria)
    assert_same_relation(result, rdb.execute(q, pizzeria))
    # The plan must include at least one partial aggregation.
    assert any("γ" in str(s) for s in plan)


def test_flat_input_builds_factorisation(pizzeria, engines):
    fdb, _, rdb = engines
    q = Query(
        relations=("Orders", "Pizzas", "Items"),
        group_by=("pizza",),
        aggregates=(aggregate("count", None, "n"),),
    )
    assert_same_relation(fdb.execute(q, pizzeria), rdb.execute(q, pizzeria))


def test_star_query_on_multiple_relations(pizzeria, engines):
    fdb, _, rdb = engines
    q = Query(relations=("Orders", "Pizzas", "Items"))
    left = fdb.execute(q, pizzeria)
    right = rdb.execute(q, pizzeria)
    # natural-join semantics: each attribute once
    assert set(left.schema) == {"customer", "date", "pizza", "item", "price"}
    assert_same_relation(left, right)


def test_explicit_equality_selection(engines):
    fdb, _, rdb = engines
    db = Database(
        [
            Relation(("a", "x"), [(1, 5), (2, 6)], "R"),
            Relation(("b", "y"), [(1, 7), (3, 8)], "S"),
        ]
    )
    q = Query(relations=("R", "S"), equalities=(Equality("a", "b"),))
    assert_same_relation(fdb.execute(q, db), rdb.execute(q, db))


def test_constant_selection_before_planning(pizzeria, engines):
    fdb, _, rdb = engines
    q = Query(
        relations=("R",),
        comparisons=(Comparison("price", ">", 1),),
        group_by=("pizza",),
        aggregates=(aggregate("sum", "price", "s"),),
    )
    assert_same_relation(fdb.execute(q, pizzeria), rdb.execute(q, pizzeria))


def test_projection_query(pizzeria, engines):
    fdb, _, rdb = engines
    q = Query(relations=("R",), projection=("pizza", "price"))
    assert_same_relation(fdb.execute(q, pizzeria), rdb.execute(q, pizzeria))


def test_projection_of_internal_node(pizzeria, engines):
    fdb, _, rdb = engines
    # date is internal in T1; projecting it away forces sink-to-leaf.
    q = Query(relations=("R",), projection=("pizza", "customer"))
    assert_same_relation(fdb.execute(q, pizzeria), rdb.execute(q, pizzeria))


def test_order_by_group_attribute(pizzeria, engines):
    fdb, _, rdb = engines
    q = Query(
        relations=("R",),
        group_by=("pizza",),
        aggregates=(aggregate("sum", "price", "s"),),
    ).with_order([("pizza", "desc")])
    assert fdb.execute(q, pizzeria).rows == rdb.execute(q, pizzeria).rows


def test_order_by_alias(pizzeria, engines):
    fdb, _, rdb = engines
    q = Query(
        relations=("R",),
        group_by=("customer",),
        aggregates=(aggregate("sum", "price", "rev"),),
    ).with_order([("rev", "desc"), "customer"])
    assert fdb.execute(q, pizzeria).rows == rdb.execute(q, pizzeria).rows


def test_limit_on_groups(pizzeria, engines):
    fdb, _, rdb = engines
    q = Query(
        relations=("R",),
        group_by=("pizza",),
        aggregates=(aggregate("sum", "price", "s"),),
        order_by=(),
    ).with_order(["pizza"]).with_limit(2)
    assert fdb.execute(q, pizzeria).rows == rdb.execute(q, pizzeria).rows


def test_having_flat_and_factorised(pizzeria, engines):
    fdb, fdbf, rdb = engines
    q = Query(
        relations=("R",),
        group_by=("customer",),
        aggregates=(aggregate("sum", "price", "rev"),),
        having=(Having("rev", ">", 10),),
    )
    expected = rdb.execute(q, pizzeria)
    assert_same_relation(fdb.execute(q, pizzeria), expected)
    assert_same_relation(fdbf.execute(q, pizzeria).to_relation(), expected)


def test_having_on_group_attribute(pizzeria, engines):
    fdb, fdbf, rdb = engines
    q = Query(
        relations=("R",),
        group_by=("customer",),
        aggregates=(aggregate("sum", "price", "rev"),),
        having=(Having("customer", "=", "Mario"),),
    )
    expected = rdb.execute(q, pizzeria)
    assert_same_relation(fdb.execute(q, pizzeria), expected)
    assert_same_relation(fdbf.execute(q, pizzeria).to_relation(), expected)


def test_factorised_result_properties(pizzeria):
    fdbf = FDBEngine(output="factorised")
    q = Query(
        relations=("R",),
        group_by=("customer", "pizza"),
        aggregates=(aggregate("sum", "price", "rev"),),
    )
    result = fdbf.execute(q, pizzeria)
    assert isinstance(result, FactorisedResult)
    assert result.output_schema == ("customer", "pizza", "rev")
    assert result.size() > 0
    rows = list(result.iter_tuples())
    assert all(len(row) == 3 for row in rows)


def test_factorised_result_avg(pizzeria):
    fdbf = FDBEngine(output="factorised")
    rdb = RDBEngine()
    q = Query(
        relations=("R",),
        group_by=("pizza",),
        aggregates=(aggregate("avg", "price", "m"), aggregate("count", None, "n")),
    )
    assert_same_relation(
        fdbf.execute(q, pizzeria).to_relation(), rdb.execute(q, pizzeria)
    )


def test_scalar_aggregate_factorised(pizzeria):
    fdbf = FDBEngine(output="factorised")
    q = Query(relations=("R",), aggregates=(aggregate("max", "price", "top"),))
    result = fdbf.execute(q, pizzeria)
    assert list(result.iter_tuples()) == [(6,)]


def test_group_by_independent_attributes_linearises():
    """Grouping attributes from independent relations forces nesting."""
    db = Database(
        [
            Relation(("a", "v"), [(1, 2), (1, 3), (2, 5)], "R"),
            Relation(("b",), [(7,), (8,)], "S"),
        ]
    )
    q = Query(
        relations=("R", "S"),
        group_by=("a", "b"),
        aggregates=(aggregate("sum", "v", "s"),),
    )
    fdbf = FDBEngine(output="factorised")
    rdb = RDBEngine()
    assert_same_relation(fdbf.execute(q, db).to_relation(), rdb.execute(q, db))


def test_order_by_alias_multi_aggregate_flat(pizzeria):
    fdb = FDBEngine()
    rdb = RDBEngine()
    q = Query(
        relations=("R",),
        group_by=("customer",),
        aggregates=(
            aggregate("sum", "price", "rev"),
            aggregate("count", None, "n"),
        ),
    ).with_order(["customer"])
    assert fdb.execute(q, pizzeria).rows == rdb.execute(q, pizzeria).rows


def test_unknown_attribute_rejected(pizzeria):
    q = Query(
        relations=("R",),
        group_by=("nonexistent",),
        aggregates=(aggregate("count", None, "n"),),
    )
    with pytest.raises(QueryError):
        FDBEngine().execute(q, pizzeria)


def test_trace_available_after_execution(pizzeria):
    fdb = FDBEngine()
    q = Query(
        relations=("R",),
        group_by=("customer",),
        aggregates=(aggregate("sum", "price", "rev"),),
    )
    _, plan, trace = fdb.execute_traced(q, pizzeria)
    assert trace is not None
    assert len(trace.sizes) == len(plan)


def test_exhaustive_optimizer_engine(pizzeria):
    fdb = FDBEngine(optimizer="exhaustive")
    rdb = RDBEngine()
    q = Query(
        relations=("R",),
        group_by=("customer",),
        aggregates=(aggregate("sum", "price", "rev"),),
    )
    assert_same_relation(fdb.execute(q, pizzeria), rdb.execute(q, pizzeria))


# ---------------------------------------------------------------------------
# The collector pause around f-plan execution
# ---------------------------------------------------------------------------
_REVENUE = Query(
    relations=("R",),
    group_by=("customer",),
    aggregates=(aggregate("sum", "price", "rev"),),
)


def test_no_collection_inside_a_plan_and_collector_back_on_after(pizzeria):
    import gc

    from repro.core import fplan

    seen = []
    original = fplan.FPlan.execute

    def spying(self, fact, trace=None):
        seen.append(gc.isenabled())
        return original(self, fact, trace)

    fplan.FPlan.execute = spying
    try:
        assert gc.isenabled()
        FDBEngine().execute(_REVENUE, pizzeria)
    finally:
        fplan.FPlan.execute = original
    assert seen and not any(seen)
    assert gc.isenabled()


def test_pause_respects_a_collector_the_caller_turned_off(pizzeria):
    import gc

    gc.disable()
    try:
        FDBEngine().execute(_REVENUE, pizzeria)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_pause_ends_when_the_plan_fails(pizzeria):
    import gc

    from repro.core.engine import _collector_paused

    with pytest.raises(KeyError):
        with _collector_paused():
            assert not gc.isenabled()
            raise KeyError("boom")
    assert gc.isenabled()
    with _collector_paused():  # the switch was handed back
        assert not gc.isenabled()
    assert gc.isenabled()


def test_concurrent_plans_leave_the_collector_on(pizzeria):
    import gc
    import threading

    engine = FDBEngine()
    expected = engine.execute(_REVENUE, pizzeria).rows
    failures = []

    def client():
        for _ in range(40):
            if engine.execute(_REVENUE, pizzeria).rows != expected:
                failures.append("rows differ")

    threads = [threading.Thread(target=client) for _ in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures
    assert gc.isenabled()


@pytest.mark.skipif(not hasattr(__import__("os"), "fork"), reason="needs fork")
def test_child_forked_during_a_plan_collects(pizzeria):
    import gc
    import os

    from repro.core.engine import _collector_paused

    with _collector_paused():
        pid = os.fork()
        if pid == 0:  # the child: outside every plan, collector on
            healthy = gc.isenabled()
            with _collector_paused():
                healthy = healthy and not gc.isenabled()
            os._exit(0 if healthy and gc.isenabled() else 1)
        _, status = os.waitpid(pid, 0)
    assert status == 0
    assert gc.isenabled()
