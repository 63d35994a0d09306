"""Engine registry and backend behaviour."""

import pytest

from repro.api import (
    Engine,
    EngineRun,
    available_engines,
    connect,
    create_engine,
    register_engine,
)
from repro.relational.relation import Relation


def test_builtin_registry_names():
    names = available_engines()
    for expected in ("fdb", "fdb-factorised", "rdb", "rdb-hash", "sqlite"):
        assert expected in names


def test_create_engine_unknown_name_suggests():
    with pytest.raises(ValueError, match="did you mean 'sqlite'"):
        create_engine("sqlight")
    with pytest.raises(ValueError, match="registered engines"):
        create_engine("nope")


@pytest.mark.parametrize(
    "engine,accepted",
    [
        ("fdb", "output, optimizer"),
        ("fdb-factorised", "output, optimizer"),
        ("fdb-parallel", "shards, workers, key, optimizer"),
        ("rdb", "grouping, join_method"),
        ("sqlite", r"\(none\)"),
    ],
)
def test_unknown_engine_option_fails_with_a_reason(pizzeria, engine, accepted):
    """Reported when the backend is instantiated — at the first query."""
    session = connect(pizzeria, engine=engine, layout="legacy")
    with pytest.raises(
        ValueError,
        match=f"engine '{engine}' does not accept option 'layout'; "
        f"accepted options: {accepted}$",
    ):
        session.query("R").count("n").run()


def test_errors_inside_a_backend_constructor_are_not_rewritten(monkeypatch):
    from repro.api import engines

    def raises(optimizer):
        raise TypeError("boom")

    monkeypatch.setitem(engines._REGISTRY, "raises-test", raises)
    with pytest.raises(TypeError, match="boom"):
        create_engine("raises-test", optimizer="cost")


def test_register_engine_rejects_silent_override():
    with pytest.raises(ValueError, match="already registered"):
        register_engine("fdb", lambda: None)


def test_engine_options_forwarded():
    fdb = create_engine("fdb", optimizer="exhaustive")
    assert fdb.name == "FDB"
    assert create_engine("fdb-factorised").name == "FDB f/o"
    assert create_engine("rdb").name == "RDB-sort"
    assert create_engine("rdb-hash").name == "RDB-hash"


def test_custom_engine_plugs_into_sessions(pizzeria):
    class ConstantEngine(Engine):
        name = "constant"

        def run(self, query, database):
            return EngineRun(
                relation=Relation(("answer",), [(42,)], "constant")
            )

    register_engine("constant-test", ConstantEngine, replace=True)
    session = connect(pizzeria)
    result = session.query("R").count("n").run(engine="constant-test")
    assert result.rows == [(42,)]
    assert result.engine == "constant"
    # Default explain text exists even for minimal backends.
    assert "constant" in result.explain()


def test_sqlite_backend_reloads_per_database(pizzeria, tiny_workload_db):
    backend = create_engine("sqlite")
    with pytest.raises(RuntimeError, match="not prepared"):
        backend.connection
    backend.prepare(pizzeria)
    first = backend.connection
    query = connect(pizzeria).query("R").count("n").to_query()
    assert backend.run(query, pizzeria).relation.rows == [(13,)]
    # A different database triggers a fresh load.
    backend.prepare(tiny_workload_db)
    assert backend.connection is not first
