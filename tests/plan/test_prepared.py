"""The prepared-query lifecycle: caches, invalidation, explain surface."""

import pytest

from repro import connect, param
from repro.core.build import factorise_path
from repro.plan import PreparedQuery, canonical_key
from repro.relational.relation import Relation

ENGINES = ("fdb", "fdb-factorised", "rdb", "rdb-hash", "sqlite")


def _relation():
    rows = [("a", 1, 5), ("a", 2, 9), ("b", 1, 30), ("c", 4, 2)]
    return Relation(("g", "k", "price"), rows, name="R")


@pytest.fixture()
def session():
    return connect(_relation())


# ---------------------------------------------------------------------------
# Plan cache
# ---------------------------------------------------------------------------
def test_a_result_cache_hit_explains_without_compiling(session, monkeypatch):
    from repro.core.engine import FDBEngine

    compiles = []
    compile_plan = FDBEngine.compile
    monkeypatch.setattr(
        FDBEngine,
        "compile",
        lambda self, *args: compiles.append(1) or compile_plan(self, *args),
    )
    sql = "SELECT g, SUM(price) AS rev FROM R GROUP BY g"
    first = session.sql(sql)
    text = first.explain()
    assert len(compiles) == 1
    # Each statement gets a fresh handle: the hit's explain renders the
    # plan kept beside the cached payload.
    hit = session.sql(sql)
    assert hit.lifecycle.result_cache == "hit"
    assert hit.explain().splitlines()[0] == text.splitlines()[0]
    assert len(compiles) == 1


def test_repeated_execute_hits_the_plan_cache(session):
    sql = "SELECT g, SUM(price) AS rev FROM R WHERE price > :f GROUP BY g"
    first = session.execute(sql, params={"f": 4})
    assert first.lifecycle.plan_cache == "miss"
    # A new binding misses the result cache but reuses the plan.
    rebound = session.execute(sql, params={"f": 0})
    assert rebound.lifecycle.plan_cache == "hit"
    assert "plan cache hit" in rebound.explain()
    # An identical re-execution is served whole from the result cache
    # (no plan work at all — hence "skipped").
    repeat = session.execute(sql, params={"f": 0})
    assert repeat.lifecycle.result_cache == "hit"
    assert repeat.lifecycle.plan_cache == "skipped"
    assert sorted(repeat.rows) == sorted(rebound.rows)
    assert "result cache hit" in repeat.explain()
    assert session.caches.plans.stats.hits >= 1


def test_structurally_identical_queries_share_one_plan(session):
    built = session.query("R").group_by("g").sum("price", "rev")
    session.execute(built)
    parsed = session.execute("SELECT g, SUM(price) AS rev FROM R GROUP BY g")
    # Same canonical structure → the SQL spelling reuses the built plan.
    assert parsed.lifecycle.plan_cache in ("hit", "skipped")


def test_prepared_rerun_skips_optimisation(session):
    prepared = session.prepare(
        session.query("R")
        .where("price", ">", param("floor"))
        .group_by("g")
        .sum("price", "rev")
    )
    first = prepared.run(floor=4)
    assert first.lifecycle.plan_cache == "miss"
    rebound = prepared.run(floor=0)
    assert rebound.lifecycle.plan_cache == "hit"  # new binding, same plan
    assert "plan cache hit" in rebound.explain()
    repeat = prepared.run(floor=0)
    assert repeat.lifecycle.result_cache == "hit"


def test_catalogue_change_invalidates_plans(session):
    sql = "SELECT g, SUM(price) AS rev FROM R GROUP BY g"
    session.execute(sql)
    before = sorted(session.execute(sql).rows)
    # Re-registering R (here: the same rows under a factorised view)
    # changes the catalogue fingerprint — the plan recompiles.
    fact = factorise_path(_relation(), key="R", order=["g", "k", "price"])
    session.add_factorised("R", fact)
    after = session.execute(sql)
    assert after.lifecycle.plan_cache == "miss"
    assert sorted(after.rows) == before
    assert session.caches.plans.stats.invalidations >= 1


def test_engine_choices_do_not_share_plans(session):
    sql = "SELECT g, SUM(price) AS rev FROM R GROUP BY g"
    a = session.execute(sql, engine="fdb")
    b = session.execute(sql, engine="sqlite")
    assert b.lifecycle.plan_cache == "miss"  # sqlite compiled its own
    assert sorted(a.rows) == sorted(b.rows)


def test_plan_cache_lru_eviction():
    session = connect(_relation(), plan_cache_size=2, result_cache_size=2)
    for floor in range(4):
        session.execute(f"SELECT g FROM R WHERE price > {floor}")
    assert len(session.caches.plans) <= 2
    assert session.caches.plans.stats.evictions >= 2


# ---------------------------------------------------------------------------
# Result cache
# ---------------------------------------------------------------------------
def test_mutation_evicts_only_touched_relations(session):
    session.add_relation(Relation(("z",), [(1,), (2,)], "Z"))
    r_sql = "SELECT g, SUM(price) AS rev FROM R GROUP BY g"
    z_sql = "SELECT COUNT(*) AS n FROM Z"
    session.execute(r_sql), session.execute(z_sql)
    session.insert("Z", [(3,)])
    # The R result survives the Z insert (fine-grained invalidation)...
    assert session.execute(r_sql).lifecycle.result_cache == "hit"
    # ...the Z result does not.
    fresh = session.execute(z_sql)
    assert fresh.lifecycle.result_cache == "miss"
    assert fresh.rows == [(3,)]
    session.insert("R", [("d", 1, 50)])
    bumped = session.execute(r_sql)
    assert bumped.lifecycle.result_cache == "miss"
    assert sorted(bumped.rows) == [("a", 14), ("b", 30), ("c", 2), ("d", 50)]


def test_view_maintenance_evicts_dependent_results():
    """A delta to a base relation evicts results over views derived
    from it — the change-log's view_deltas carry the dependency."""
    from repro.data.workloads import build_workload_database

    database = build_workload_database(scale=0.1, seed=7)
    session = connect(database)
    sql = "SELECT customer, SUM(price) AS revenue FROM R1 GROUP BY customer"
    session.execute(sql)
    assert session.execute(sql).lifecycle.result_cache == "hit"
    # Orders feeds the registered factorised view R1.
    session.insert("Orders", [("c000", "dPREP001", "p00000")])
    refreshed = session.execute(sql)
    assert refreshed.lifecycle.result_cache == "miss"
    # Parity with a cold engine after the mutation.
    with connect(database, cache=False) as cold:
        assert sorted(refreshed.rows) == sorted(cold.execute(sql).rows)


def test_cache_disabled_sessions_still_prepare():
    session = connect(_relation(), cache=False)
    prepared = session.prepare(
        session.query("R").where("price", ">", param("floor")).select("g")
    )
    first = prepared.run(floor=4)
    assert first.lifecycle.result_cache == "off"
    # The handle retains its own plan even without shared caches.
    again = prepared.run(floor=4)
    assert again.lifecycle.plan_cache == "hit"
    assert sorted(again.rows) == sorted(first.rows)
    assert len(session.caches.plans) == 0


def test_cached_results_are_isolated_from_caller_mutation(session):
    sql = "SELECT g, price FROM R ORDER BY g"
    first = session.execute(sql)
    pristine = list(first.rows)
    # Mutating a returned result must not poison the cache...
    first.rows.reverse()
    second = session.execute(sql)
    assert second.lifecycle.result_cache == "hit"
    assert second.rows == pristine
    # ...and mutating a hit must not poison later hits either.
    second.rows.clear()
    third = session.execute(sql)
    assert third.lifecycle.result_cache == "hit"
    assert third.rows == pristine
    assert first is not second is not third  # fresh Result per execution


def test_uncached_runs_make_no_row_copy(monkeypatch):
    """Without a result cache nothing is stored, so nothing is copied:
    the rows the engine produced are the rows the caller gets."""
    import repro.plan.prepared as prepared

    copies = []
    isolate = prepared._isolate
    monkeypatch.setattr(
        prepared, "_isolate", lambda payload: copies.append(1) or isolate(payload)
    )
    session = connect(_relation(), cache=False)
    handle = session.prepare("SELECT g, price FROM R WHERE price > :f ORDER BY g")
    for floor in (0, 4, 0):
        assert handle.run(f=floor).lifecycle.result_cache == "off"
    assert copies == []


def test_cached_prepared_hits_are_isolated_from_caller_mutation(session):
    handle = session.prepare("SELECT g, price FROM R WHERE price > :f ORDER BY g")
    first = handle.run(f=0)
    pristine = list(first.rows)
    first.rows.append(("z", 0))
    hit = handle.run(f=0)
    assert hit.lifecycle.result_cache == "hit"
    assert hit.rows == pristine
    hit.rows[0] = ("mutated", -1)
    assert handle.run(f=0).rows == pristine


def test_unknown_params_rejected_even_without_declared_params(session):
    from repro.plan import ParameterError

    with pytest.raises(ParameterError, match="unknown parameters"):
        session.execute(
            "SELECT COUNT(*) AS n FROM R", params={"floor": 3}
        )


def test_delete_statements_reject_placeholders(session):
    from repro.sql.lexer import SQLSyntaxError

    with pytest.raises(SQLSyntaxError, match="not supported in DELETE"):
        session.sql("DELETE FROM R WHERE price > :x")


def test_sequence_params_bind_positionally(session):
    result = session.sql(
        "SELECT g, SUM(price) AS rev FROM R WHERE price > ? GROUP BY g",
        params=[4],
    )
    assert sorted(result.rows) == [("a", 14), ("b", 30)]
    from repro.plan import ParameterError

    with pytest.raises(ParameterError, match="mapping.*or a sequence"):
        session.execute("SELECT g FROM R WHERE price > ?", params=4)


def test_result_cache_hit_does_not_freshen_the_backend(session):
    """A hit must not forward change-log records into the backend."""
    sql = "SELECT g, SUM(price) AS rev FROM R GROUP BY g"
    session.execute(sql, engine="sqlite")
    backend = session._peek("sqlite")
    forwarded = []
    original = backend.forward

    def counting_forward(records, database):
        forwarded.append(len(list(records)))
        return original(records, database)

    backend.forward = counting_forward
    try:
        session.add_relation(Relation(("z",), [(1,)], "Zf"))
        hit = session.execute(sql, engine="sqlite")
        assert hit.lifecycle.result_cache == "hit"
        assert forwarded == []  # the skipped work stayed skipped
    finally:
        backend.forward = original


def test_prepared_explain_respects_closed_session(session):
    from repro import SessionClosedError

    prepared = session.prepare("SELECT COUNT(*) AS n FROM R")
    result = prepared.run()
    text = result.explain()  # cached on the Result before close
    session.close()
    with pytest.raises(SessionClosedError):
        prepared.explain()
    assert result.explain() == text  # the cached text survives


# ---------------------------------------------------------------------------
# Prepared handles across engines
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("engine", ENGINES)
def test_prepared_rerun_parity(session, engine):
    with connect(session.database, engine=engine) as other:
        prepared = other.prepare(
            "SELECT g, SUM(price) AS rev FROM R GROUP BY g ORDER BY rev DESC"
        )
        first = prepared.run()
        second = prepared.run()
        third = other.execute(
            "SELECT g, SUM(price) AS rev FROM R GROUP BY g ORDER BY rev DESC"
        )
        assert first.rows == second.rows == third.rows
        assert second.lifecycle.result_cache == "hit"


def test_prepared_handle_introspection(session):
    prepared = session.prepare(
        session.query("R").where("price", ">", param("floor")).select("g")
    )
    assert isinstance(prepared, PreparedQuery)
    assert prepared.parameters == ("floor",)
    assert prepared.cache_key == canonical_key(prepared.query)
    assert ":floor" in repr(prepared)
    assert "f-tree" in prepared.explain() or "query" in prepared.explain()
