"""Round-trip tests for factorisation serialisation."""

import pytest

from repro.core import operators as ops
from repro.core.build import factorise, factorise_path
from repro.core.io import (
    SerialisationError,
    dumps,
    factorisation_from_dict,
    factorisation_to_dict,
    ftree_from_dict,
    ftree_to_dict,
    load_view,
    loads,
    save_view,
)
from repro.relational.operators import multiway_join
from repro.relational.relation import Relation


@pytest.fixture()
def pizza_fact(pizzeria_rels, t1):
    return factorise(multiway_join(list(pizzeria_rels)), t1)


def test_ftree_roundtrip(t1):
    document = ftree_to_dict(t1)
    restored = ftree_from_dict(document)
    assert restored.pretty() == t1.pretty()
    assert restored.node("pizza").keys == t1.node("pizza").keys


def test_ftree_with_aggregate_roundtrip(pizza_fact):
    aggregated = ops.apply_aggregation(
        pizza_fact, "pizza", ["item"], [("sum", "price")], name="sp"
    )
    restored = ftree_from_dict(ftree_to_dict(aggregated.ftree))
    node = restored.node("sp")
    assert node.is_aggregate
    assert node.aggregate.functions == (("sum", "price"),)
    assert node.aggregate.over == frozenset({"item", "price"})


def test_factorisation_roundtrip(pizza_fact):
    restored = loads(dumps(pizza_fact))
    assert restored.size() == pizza_fact.size()
    assert restored.to_relation() == pizza_fact.to_relation()


def test_roundtrip_with_aggregate_values(pizza_fact):
    aggregated = ops.apply_aggregation(
        pizza_fact, "pizza", ["item"], [("sum", "price"), ("count", None)], name="sp"
    )
    restored = loads(dumps(aggregated))
    assert list(restored.iter_tuples()) == list(aggregated.iter_tuples())


def test_file_roundtrip(tmp_path, pizza_fact):
    path = str(tmp_path / "view.fdb.json")
    save_view(pizza_fact, path)
    restored = load_view(path)
    assert restored.to_relation() == pizza_fact.to_relation()


def test_version_checked(pizza_fact):
    document = factorisation_to_dict(pizza_fact)
    document["version"] = 99
    with pytest.raises(SerialisationError):
        factorisation_from_dict(document)


def test_malformed_tree_rejected():
    with pytest.raises(SerialisationError):
        ftree_from_dict({"nope": []})


def test_loaded_view_is_queryable(tmp_path, pizzeria):
    from repro.core.engine import FDBEngine
    from repro.query import Query, aggregate

    path = str(tmp_path / "r.json")
    save_view(pizzeria.get_factorised("R"), path)
    restored = load_view(path)
    pizzeria.add_factorised("R2", restored)
    q = Query(
        relations=("R2",),
        group_by=("customer",),
        aggregates=(aggregate("sum", "price", "rev"),),
    )
    result = FDBEngine().execute(q, pizzeria)
    assert sorted(result.rows) == [("Lucia", 9), ("Mario", 22), ("Pietro", 9)]


def test_empty_factorisation_roundtrip():
    fact = factorise_path(Relation(("a", "b"), []), "R")
    restored = loads(dumps(fact))
    assert restored.is_empty() or restored.size() == 0


#: Written by ``dumps`` at the commit before unions became ``CUnion``s
#: (format version 1): γ_{sum(b), count}(b) below ``a`` in the view
#: ``a → {b, c}``.  Documents on disk outlive the in-memory classes.
PARENT_DOCUMENT = (
    '{"version":1,"ftree":{"roots":[{"keys":["R","S","__dep_1"],"children":'
    '[{"keys":["__dep_1"],"children":[],"aggregate":{"functions":[["sum","b"],'
    '["count",null]],"over":["b"],"name":"sb"}},{"keys":["S"],"children":[],'
    '"attributes":["c"]}],"attributes":["a"]}]},"roots":[[[1,[[[{"t":[30,2]},'
    '[]]],[["x",[]]]]],[2,[[[{"t":[10,1]},[]]],[["y",[]],["z",[]]]]]]]}'
)


def test_document_written_before_the_port_loads_and_rewrites_identically():
    restored = loads(PARENT_DOCUMENT)
    assert list(restored.iter_tuples()) == [
        (1, (30, 2), "x"),
        (2, (10, 1), "y"),
        (2, (10, 1), "z"),
    ]
    assert restored.ftree.node("sb").aggregate.functions == (
        ("sum", "b"),
        ("count", None),
    )
    assert dumps(restored) == PARENT_DOCUMENT


def test_fragments_that_do_not_fit_the_tree_are_rejected():
    document = factorisation_to_dict(
        factorise_path(Relation(("a", "b"), [(1, 2)]), "R")
    )
    document["roots"][0][0][1] = []  # the entry lost its child union
    with pytest.raises(SerialisationError):
        factorisation_from_dict(document)
