"""Property-based tests (hypothesis) for the core invariants.

The central invariants of factorised databases, exercised on randomised
inputs:

1. factorise ∘ flatten is the identity (path trees: any relation);
2. join trees: flatten(factorise(R ⋈ S)) = R ⋈ S;
3. swap never changes the represented relation, the sortedness
   invariant, or the path constraint;
4. FDB and RDB agree on randomised aggregate queries;
5. ordered enumeration equals sorting the flat result;
6. the size-bound cost dominates the actual representation size;
7. merge/absorb/selection agree with their relational counterparts.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import operators as ops
from repro.core.build import factorise, factorise_path
from repro.core.cost import Hypergraph, ftree_cost
from repro.core.engine import FDBEngine
from repro.core.enumerate import iter_tuples, restructure_for_order
from repro.core.ftree import build_ftree
from repro.database import Database
from repro.query import Comparison, Query, aggregate
from repro.relational.engine import RDBEngine
from repro.relational.operators import natural_join
from repro.relational.relation import Relation
from repro.relational.sort import sort_rows

from tests.conftest import assert_same_relation

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

values = st.integers(min_value=0, max_value=5)


@st.composite
def relations(draw, attrs=("a", "b", "c"), max_rows=12):
    rows = draw(
        st.lists(
            st.tuples(*([values] * len(attrs))),
            min_size=1,
            max_size=max_rows,
            unique=True,
        )
    )
    return Relation(attrs, rows, name="R")


@st.composite
def joined_pair(draw):
    left = draw(
        st.lists(st.tuples(values, values), min_size=1, max_size=10, unique=True)
    )
    right = draw(
        st.lists(st.tuples(values, values), min_size=1, max_size=10, unique=True)
    )
    r = Relation(("a", "b"), left, name="R")
    s = Relation(("b", "c"), right, name="S")
    return r, s


@given(relations())
@SETTINGS
def test_factorise_flatten_identity(relation):
    fact = factorise_path(relation, "R")
    fact.validate()
    assert fact.to_relation() == relation


@given(joined_pair())
@SETTINGS
def test_join_tree_factorisation(pair):
    r, s = pair
    joined = natural_join(r, s)
    if not len(joined):
        return
    tree = build_ftree(
        [("b", ["a", "c"])],
        keys={"b": {"R", "S"}, "a": {"R"}, "c": {"S"}},
    )
    fact = factorise(joined, tree)
    fact.validate()
    assert fact.to_relation() == joined
    # Bound check: cost with |D| = max input size dominates actual size.
    hypergraph = Hypergraph({"R": ("a", "b"), "S": ("b", "c")})
    bound = ftree_cost(tree, hypergraph, scale=max(len(r), len(s)))
    assert bound >= fact.size()


@given(relations(), st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=4))
@SETTINGS
def test_swap_sequence_preserves_relation(relation, swap_names):
    fact = factorise_path(relation, "R")
    for name in swap_names:
        node = fact.ftree.node(name)
        if fact.ftree.parent(node) is None:
            continue
        fact = ops.swap(fact.ftree, name).run(fact)
        fact.validate()
        assert fact.ftree.satisfies_path_constraint()
    assert fact.to_relation() == relation


@given(
    joined_pair(),
    st.sampled_from(["a", "b", "c"]),
    st.sampled_from(["sum", "count", "min", "max", "avg"]),
)
@SETTINGS
def test_fdb_matches_rdb_on_random_aggregates(pair, group_attr, function):
    r, s = pair
    db = Database([r, s])
    attribute = None if function == "count" else ("c" if group_attr != "c" else "a")
    query = Query(
        relations=("R", "S"),
        group_by=(group_attr,),
        aggregates=(aggregate(function, attribute, "out"),),
    )
    reference = RDBEngine().execute(query, db)
    if not len(reference):
        return
    assert_same_relation(FDBEngine().execute(query, db), reference)


@given(joined_pair())
@SETTINGS
def test_factorised_output_matches_rdb(pair):
    r, s = pair
    db = Database([r, s])
    query = Query(
        relations=("R", "S"),
        group_by=("a",),
        aggregates=(
            aggregate("sum", "c", "s"),
            aggregate("count", None, "n"),
        ),
    )
    reference = RDBEngine().execute(query, db)
    if not len(reference):
        return
    result = FDBEngine(output="factorised").execute(query, db)
    assert_same_relation(result.to_relation(), reference)


@given(
    relations(),
    st.permutations(["a", "b", "c"]),
    st.tuples(st.booleans(), st.booleans(), st.booleans()),
)
@SETTINGS
def test_ordered_enumeration_equals_sorting(relation, perm, directions):
    order = [
        (attr, "desc" if desc else "asc")
        for attr, desc in zip(perm, directions)
    ]
    fact = factorise_path(relation, "R")
    for child in restructure_for_order(fact.ftree, order):
        fact = ops.swap(fact.ftree, child).run(fact)
    rows = list(iter_tuples(fact, order))
    expected = sort_rows(
        relation.project(fact.schema(), dedup=False).rows,
        fact.schema(),
        order,
    )
    assert rows == expected


@given(relations(), values)
@SETTINGS
def test_constant_selection_matches_relational(relation, threshold):
    fact = factorise_path(relation, "R")
    selected = ops.select(fact.ftree, Comparison("b", "<=", threshold)).run(fact)
    selected.validate()
    expected = relation.select(lambda row: row["b"] <= threshold)
    assert selected.to_relation() == expected


@given(relations())
@SETTINGS
def test_absorb_matches_relational_selection(relation):
    fact = factorise_path(relation, "R")  # a → b → c
    absorbed = ops.absorb(fact.ftree, "a", "c").run(fact)
    absorbed.validate()
    expected = relation.select(lambda row: row["a"] == row["c"])
    flat = absorbed.to_relation()
    assert set(flat.project(["a", "b", "c"], dedup=False).rows) == set(
        expected.rows
    )


@given(joined_pair())
@SETTINGS
def test_merge_computes_natural_join(pair):
    r, s = pair
    r2 = r.rename({"b": "b1"})
    s2 = s.rename({"b": "b2"})
    fact = ops.product(
        factorise_path(r2, "R", order=["b1", "a"]),
        factorise_path(s2, "S", order=["b2", "c"]),
    )
    merged = ops.merge(fact.ftree, "b1", "b2").run(fact)
    merged.validate()
    expected = natural_join(r, s)
    flat = merged.to_relation()
    projected = set(
        (row[flat.schema.index("a")], row[flat.schema.index("b1")], row[flat.schema.index("c")])
        for row in flat.rows
    )
    assert projected == {
        (a, b, c) for (b, a, c) in
        ((row[expected.schema.index("b")], row[expected.schema.index("a")], row[expected.schema.index("c")]) for row in expected.rows)
    }


@given(relations(max_rows=10))
@SETTINGS
def test_remove_leaf_is_projection(relation):
    fact = factorise_path(relation, "R")
    removed = ops.remove_leaf(fact.ftree, "c").run(fact)
    removed.validate()
    assert removed.to_relation() == relation.project(["a", "b"])


@given(joined_pair())
@SETTINGS
def test_scalar_aggregates_match(pair):
    r, s = pair
    db = Database([r, s])
    query = Query(
        relations=("R", "S"),
        aggregates=(
            aggregate("count", None, "n"),
            aggregate("sum", "a", "sa"),
        ),
    )
    reference = RDBEngine().execute(query, db)
    assert_same_relation(FDBEngine().execute(query, db), reference)
