"""Tests for the Figure 3 workload definitions and view construction."""

import pytest

from repro.data.workloads import (
    AGG_ORD_QUERIES,
    AGG_QUERIES,
    ORD_QUERIES,
    WORKLOAD,
    build_workload_database,
    section6_ftree,
)


def test_thirteen_queries_defined():
    assert len(WORKLOAD) == 13
    assert set(AGG_QUERIES + AGG_ORD_QUERIES + ORD_QUERIES) == set(WORKLOAD)


def test_groups_match_figure3():
    assert all(WORKLOAD[q].group == "AGG" for q in AGG_QUERIES)
    assert all(WORKLOAD[q].group == "AGG+ORD" for q in AGG_ORD_QUERIES)
    assert all(WORKLOAD[q].group == "ORD" for q in ORD_QUERIES)


def test_q2_definition():
    q2 = WORKLOAD["Q2"].query
    assert q2.relations == ("R1",)
    assert q2.group_by == ("customer",)
    assert q2.aggregates[0].alias == "revenue"


def test_q6_q7_extend_q2():
    assert WORKLOAD["Q6"].query.order_attributes == ("customer",)
    assert WORKLOAD["Q7"].query.order_attributes == ("revenue",)
    assert WORKLOAD["Q6"].query.group_by == ("customer",)


def test_ord_queries_target_views():
    assert WORKLOAD["Q10"].query.relations == ("R2",)
    assert WORKLOAD["Q13"].query.relations == ("R3",)
    assert WORKLOAD["Q12"].query.order_attributes == ("date", "package", "item")


def test_section6_ftree_shape():
    tree = section6_ftree()
    assert tree.attribute_names() == [
        "package",
        "date",
        "customer",
        "item",
        "price",
    ]
    assert tree.satisfies_path_constraint()


def test_build_database_views(tiny_workload_db):
    db = tiny_workload_db
    for name in ("R1", "R2", "R3"):
        assert name in db.relations and name in db.factorised
    r1 = db.flat("R1")
    assert set(r1.schema) == {"customer", "date", "package", "item", "price"}
    assert db.get_factorised("R1").to_relation() == r1


def test_views_skippable():
    db = build_workload_database(scale=0.1, materialise_views=False)
    assert "R1" not in db.relations
    assert set(db.names()) == {"Orders", "Packages", "Items"}


def test_r2_sorted_and_r3_sorted(tiny_workload_db):
    from repro.relational.sort import is_sorted_by

    assert is_sorted_by(
        tiny_workload_db.flat("R2"), ["package", "date", "item"]
    )
    assert is_sorted_by(
        tiny_workload_db.flat("R3"), ["date", "customer", "package"]
    )


def test_r3_is_orders_sorted(tiny_workload_db):
    assert tiny_workload_db.flat("R3") == tiny_workload_db.flat("Orders")


def test_expression_catalogue():
    from repro.data.workloads import (
        EXPRESSION_QUERIES,
        EXPRESSION_WORKLOAD,
        FULL_WORKLOAD,
        WORKLOAD,
    )

    assert len(WORKLOAD) == 13  # Figure 3 stays untouched
    assert set(EXPRESSION_QUERIES) == {"E1", "E2", "E3", "E4", "E5"}
    assert set(FULL_WORKLOAD) == set(WORKLOAD) | set(EXPRESSION_WORKLOAD)
    sums = EXPRESSION_WORKLOAD["E1"].query.aggregates
    assert sums[0].is_expression
    assert sums[0].source_attributes == ("price",)


def test_flat_r1_and_r2_are_derived_on_first_use(monkeypatch):
    from repro import connect
    from repro.core.frep import Factorisation
    from repro.data import workloads
    from repro.relational import operators
    from repro.relational.sort import is_sorted_by

    calls = []
    to_relation = Factorisation.to_relation
    join = operators.multiway_join
    monkeypatch.setattr(
        Factorisation,
        "to_relation",
        lambda self, name="": calls.append("to_relation") or to_relation(self, name),
    )
    monkeypatch.setattr(
        operators,
        "multiway_join",
        lambda *args, **kwargs: calls.append("multiway_join") or join(*args, **kwargs),
    )
    monkeypatch.setattr(workloads, "multiway_join", operators.multiway_join)

    database = build_workload_database(scale=0.1, seed=7)
    assert calls == []
    assert database.get_factorised("R1") is database.get_factorised("R2")
    with connect(database) as session:  # FDB reads the factorisation only
        session.sql("SELECT customer, SUM(price) AS s FROM R1 GROUP BY customer")
    assert not database.relations["R1"].rows

    r1 = database.flat("R1")
    assert r1.schema == ("customer", "date", "package", "item", "price")
    assert r1 == database.get_factorised("R1").to_relation()
    assert r1 == join([database.flat(n) for n in ("Orders", "Packages", "Items")])
    # A second customer on one (package, date): pre-order enumeration
    # would now repeat that package's items, out of R2's declared order.
    _customer, date, package = database.flat("Orders").rows[0]
    database.insert("Orders", [("c_second", date, package)])
    with database.snapshot() as snapshot:
        pinned = snapshot.flat("R2")
        assert is_sorted_by(pinned, ["package", "date", "item"])
        assert pinned.schema == r1.schema
        assert pinned.rows == database.flat("R2").rows
