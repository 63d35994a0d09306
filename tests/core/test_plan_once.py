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
