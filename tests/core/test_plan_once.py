"""Plan once: ``compile`` derives the planning inputs a single time, and
``execute_planned``, ``explain`` and the verifier read the artifact."""

from __future__ import annotations

import pytest

from repro import connect
from repro.analysis import verifier
from repro.core import engine as engine_module
from repro.core.engine import FDBEngine
from repro.data.workloads import build_workload_database
from repro.sql import parse_query
from repro.stats.cache import StatsCache

ON_DEMAND = "SELECT * FROM R1 ORDER BY customer LIMIT 10"
EAGER = "SELECT * FROM R2 ORDER BY date, package, item LIMIT 5000"


@pytest.fixture(scope="module")
def database():
    return build_workload_database(scale=0.25, seed=7)


@pytest.fixture()
def counts(monkeypatch):
    """Calls of ``planning_inputs`` and of the projection derivation."""
    seen = {"planning_inputs": 0, "projection": 0}
    planning_inputs = FDBEngine.planning_inputs
    projection = engine_module._with_effective_projection

    def counted_planning_inputs(self, query, database):
        seen["planning_inputs"] += 1
        return planning_inputs(self, query, database)

    def counted_projection(query, database):
        seen["projection"] += 1
        return projection(query, database)

    monkeypatch.setattr(FDBEngine, "planning_inputs", counted_planning_inputs)
    monkeypatch.setattr(
        engine_module, "_with_effective_projection", counted_projection
    )
    return seen


@pytest.mark.parametrize(
    "sql,on_demand", [(ON_DEMAND, True), (EAGER, False)], ids=["on-demand", "eager"]
)
def test_explain_describes_the_plan_that_runs(database, sql, on_demand):
    engine = FDBEngine()
    query = parse_query(sql)
    compiled = engine.compile(query, database)
    assert compiled.order_swap is not None
    assert compiled.order_swap.on_demand is on_demand
    lines = engine.explain(query, database).splitlines()
    estimate = f"{compiled.provenance['estimated_size']:.0f} singletons"
    assert lines[1].endswith(f"estimated result size {estimate}")
    assert f"order: {compiled.order_swap.describe()}" in lines


@pytest.mark.parametrize(
    "sql",
    [
        ON_DEMAND,
        "SELECT customer, SUM(price) AS revenue FROM R1 WHERE price > 5 "
        "GROUP BY customer",
        "SELECT * FROM Orders, Packages ORDER BY customer LIMIT 5",
        "SELECT customer, SUM(price) AS revenue FROM R1 WHERE price * 2 > 20 "
        "GROUP BY customer",
    ],
    ids=["spj", "aggregate", "natural-join", "expression-selection"],
)
def test_planning_inputs_run_once_per_compile(database, counts, sql):
    engine = FDBEngine()
    query = parse_query(sql)
    compiled = engine.compile(query, database)
    assert counts == {"planning_inputs": 1, "projection": 1}
    first = engine.execute_planned(compiled, query, database)[0]
    second = engine.execute_planned(compiled, query, database)[0]
    assert counts == {"planning_inputs": 1, "projection": 1}
    assert first.rows == second.rows
    assert first.rows == engine.execute(query, database).rows
    assert counts == {"planning_inputs": 2, "projection": 2}
    engine.explain(query, database)
    assert counts == {"planning_inputs": 3, "projection": 3}


def test_greedy_verification_reads_no_statistics(database, monkeypatch):
    lookups = []
    verified = []
    relation_stats = StatsCache.relation_stats
    verify_compiled = verifier.verify_compiled

    def counted_lookup(self, database, name):
        lookups.append(name)
        return relation_stats(self, database, name)

    def counted_verify(compiled, **kwargs):
        verified.append(compiled)
        return verify_compiled(compiled, **kwargs)

    monkeypatch.setattr(StatsCache, "relation_stats", counted_lookup)
    monkeypatch.setattr(verifier, "verify_compiled", counted_verify)
    with connect(database, cache=False, verify=True, optimizer="greedy") as session:
        rows = session.sql(
            "SELECT package, SUM(price) AS total FROM R1 GROUP BY package"
        ).rows
    assert rows
    assert len(verified) == 1
    assert verified[0].context.stats is None
    assert lookups == []


def test_a_retained_plan_applies_each_runs_selections(database):
    """The expression selection reaches its input by position and takes
    its value from each run's bound query, not from the compiled one."""
    sql = (
        "SELECT customer, SUM(price) AS revenue FROM R1 "
        "WHERE date >= :lo AND price * 2 > :k GROUP BY customer"
    )
    runs = []
    with connect(database, cache=False) as session:
        handle = session.prepare(sql)
        for lo, k in (("d0000002", 10), ("d0000005", 30)):
            got = handle.run(lo=lo, k=k)
            inline = sql.replace(":lo", f"'{lo}'").replace(":k", str(k))
            assert sorted(got.rows) == sorted(session.sql(inline, engine="sqlite").rows)
            runs.append(got)
    assert runs[1].lifecycle.plan_cache == "hit"
    assert sorted(runs[0].rows) != sorted(runs[1].rows)


def test_the_search_reports_and_counts_its_fallback(database):
    """Past its state cap the search returns the greedy plan: compile's
    provenance, ``explain()``, the result's explain and
    ``repro_fallback_total`` all say so, once per compile — the result's
    explain renders the executed plan and compiles nothing."""
    from repro.api.engines import FDBBackend
    from repro.obs.export import parse_prometheus, render_prometheus

    def fallbacks() -> float:
        samples = parse_prometheus(render_prometheus())["repro_fallback_total"]
        key = (("layer", "optimizer"), ("reason", "state_cap"))
        return samples["samples"][("repro_fallback_total", key)]

    line = "fallback: state cap 1 → greedy plan"
    sql = "SELECT customer, SUM(price) AS revenue FROM R1 GROUP BY customer"
    query = parse_query(sql)
    before = fallbacks()
    backend = FDBBackend()
    backend._engine.optimizer.max_states = 1
    compiled = backend.plan(query, database)
    assert compiled.provenance["fallback"] == "state cap 1 → greedy plan"
    assert fallbacks() == before + 1
    assert line in backend.explain(query, database).splitlines()
    with connect(database, cache=False) as session:
        result = session.execute(sql, engine=backend)
        ran = fallbacks()
        assert ran == before + 3  # compile, explain, the execute's compile
        assert result.explain().splitlines().count(line) == 1
        assert fallbacks() == ran  # the result renders the plan that ran
        assert sorted(result.rows) == sorted(session.sql(sql, engine="sqlite").rows)
    searched = FDBEngine().compile(query, database)
    assert searched.provenance["fallback"] is None
    assert "fallback:" not in FDBEngine().explain(query, database)


# ---------------------------------------------------------------------------
# Compile once: the compiled plan carries its placed steps
# ---------------------------------------------------------------------------
#: The placements of :mod:`repro.core.operators` and what they mint.
_PLACING = (
    "swap", "merge", "absorb", "select", "remove_leaf", "remove_class_attribute",
    "rename", "nest_under", "nest_root_under", "aggregate",
    "_resolve_subtrees", "_fresh_dependency_key",
)


def _runs(monkeypatch, forbidden):
    """Fail on any call of ``forbidden`` placing functions and on any
    step placement; record each placement run with the f-tree it got."""
    from repro.core import fplan
    from repro.core import operators as ops

    def refuse(name):
        def refused(*args, **kwargs):
            raise AssertionError(f"{name} called while replaying a compiled plan")

        return refused

    for name in forbidden:
        monkeypatch.setattr(ops, name, refuse(name))
    for cls in (fplan.Step, *fplan.Step.__subclasses__()):
        monkeypatch.setattr(cls, "place", refuse(f"{cls.__name__}.place"))
    seen = []
    run = ops.Placement.run

    def spying(self, fact):
        seen.append((self, fact.ftree))
        return run(self, fact)

    monkeypatch.setattr(ops.Placement, "run", spying)
    return seen


@pytest.mark.parametrize(
    "sql,forbidden",
    [
        ("SELECT * FROM R WHERE price > 1 ORDER BY customer", _PLACING),
        (
            "SELECT customer, SUM(price) AS revenue FROM R WHERE price > 1 "
            "GROUP BY customer",
            (),  # the output stage's own γ places itself per run
        ),
    ],
    ids=["spj", "aggregate"],
)
def test_execute_planned_replays_the_compiled_placements(monkeypatch, sql, forbidden):
    """Over a registered view, a run places no plan step and mints no
    key or name: each step's kernel runs on the very f-tree the step
    was placed on at compile."""
    from repro.core import operators as ops
    from repro.data.pizzeria import pizzeria_database

    for twin in ("swap_tree", "merge_tree", "absorb_tree", "remove_leaf_tree",
                 "aggregate_tree", "select_tree", "rename_tree", "apply_aggregation"):
        assert not hasattr(ops, twin), twin
    database = pizzeria_database()
    engine = FDBEngine()
    query = parse_query(sql)
    compiled = engine.compile(query, database)
    assert compiled.inputs[0].registered and compiled.plan.placed
    want = engine.execute_planned(compiled, query, database)[0].rows
    seen = _runs(monkeypatch, forbidden)
    got, _, trace = engine.execute_planned(compiled, query, database)
    assert got.rows == want
    ran = [placement for placement, _ in seen]
    steps = len(compiled.plan.placed)
    start = len(compiled.selections)
    assert all(a is b for a, b in zip(ran[start:], compiled.plan.placed))
    previous = compiled.inputs_tree
    for placement, tree in seen[: start + steps]:
        assert tree is previous
        previous = placement.tree
    assert compiled.selections[-1].tree is compiled.ftree
    assert previous is compiled.plan.placed[-1].tree
    assert trace.steps[start:] == [str(step) for step in compiled.plan]


def test_a_plan_compiled_for_another_view_tree_refuses_to_run():
    """A compiled plan replays positions: over a view rebuilt to its
    path f-tree it raises instead of replaying them there."""
    from repro.core.build import factorise
    from repro.core.ftree import FTree
    from repro.data.pizzeria import pizzeria_database
    from repro.database import _path_fallback_tree
    from repro.query import QueryError

    database = pizzeria_database()
    engine = FDBEngine()
    sql = "SELECT customer, SUM(price) AS revenue FROM R GROUP BY customer"
    query = parse_query(sql)
    compiled = engine.compile(query, database)
    want = sorted(engine.execute_planned(compiled, query, database)[0].rows)
    tree = database.get_factorised("R").ftree
    # The same shape in a new f-tree object still runs.
    database.add_factorised("R", factorise(database.flat("R"), FTree(tree.roots)))
    assert sorted(engine.execute_planned(compiled, query, database)[0].rows) == want
    database.add_factorised("R", factorise(database.flat("R"), _path_fallback_tree(tree)))
    with pytest.raises(QueryError, match="compile the query again"):
        engine.execute_planned(compiled, query, database)
    assert sorted(engine.execute(query, database).rows) == want
