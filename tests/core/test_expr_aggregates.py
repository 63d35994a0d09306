"""Factorised evaluation of expression aggregates (Section 3.2).

The key claims: SUM over a product of attributes on *independent*
branches distributes as a product of partial sums (no flattening —
asserted via the execution trace's expression stats), and localised
flattening only occurs where an expression genuinely needs joint
values (min/max over arithmetic, opaque quotients).
"""

import re

import pytest

from repro import connect
from repro.core import aggregates as agg
from repro.core.build import factorise
from repro.core.engine import FDBEngine
from repro.core.ftree import build_ftree
from repro.database import Database
from repro.expr import ExprError, col
from repro.query import Comparison, Having, Query, QueryError, aggregate
from repro.relational.engine import RDBEngine
from repro.relational.relation import Relation
from repro.sql import parse_query


@pytest.fixture()
def branch_db():
    """price and qty live on independent branches below the join key."""
    return Database(
        [
            Relation(("k", "price"), [(1, 10), (1, 20), (2, 5)], "S"),
            Relation(("k", "qty"), [(1, 2), (1, 3), (2, 4)], "T"),
        ]
    )


def branch_query(**kwargs) -> Query:
    defaults = dict(
        relations=("S", "T"),
        group_by=("k",),
        aggregates=(aggregate("sum", col("price") * col("qty"), "rev"),),
    )
    defaults.update(kwargs)
    return Query(**defaults)


def test_sum_product_independent_branches_native(branch_db):
    engine = FDBEngine()
    result, _, trace = engine.execute_traced(branch_query(), branch_db)
    # k=1: (10+20)·(2+3) = 150; k=2: 5·4 = 20.
    assert sorted(result.rows) == [(1, 150), (2, 20)]
    stats = trace.expression_stats
    assert stats.flatten_events == 0
    assert stats.native_terms > 0


def test_sum_product_matches_flat_baseline(branch_db):
    query = branch_query()
    factorised, _, _ = FDBEngine().execute_traced(query, branch_db)
    flat = RDBEngine().execute(query, branch_db)
    assert sorted(factorised.rows) == sorted(flat.rows)


def test_factorised_output_mode_agrees(branch_db):
    query = branch_query()
    result, _, trace = FDBEngine(output="factorised").execute_traced(
        query, branch_db
    )
    assert sorted(result.iter_tuples()) == [(1, 150), (2, 20)]
    assert trace.expression_stats.flatten_events == 0


def test_avg_expression(branch_db):
    query = branch_query(
        aggregates=(aggregate("avg", col("price") * col("qty"), "m"),)
    )
    result, _, trace = FDBEngine().execute_traced(query, branch_db)
    assert sorted(result.rows) == [(1, 37.5), (2, 20.0)]
    assert trace.expression_stats.flatten_events == 0


def test_linear_expression_single_attribute(branch_db):
    query = branch_query(
        aggregates=(aggregate("sum", col("price") * 2 + 1, "adj"),)
    )
    result, _, trace = FDBEngine().execute_traced(query, branch_db)
    flat = RDBEngine().execute(query, branch_db)
    assert sorted(result.rows) == sorted(flat.rows)
    assert trace.expression_stats.flatten_events == 0


def test_squared_attribute_is_native(branch_db):
    # price² needs the joint distribution of price with itself, which
    # the atomic union supplies directly (entry.value squared).
    query = branch_query(
        aggregates=(aggregate("sum", col("price") * col("price"), "sq"),)
    )
    result, _, _ = FDBEngine().execute_traced(query, branch_db)
    flat = RDBEngine().execute(query, branch_db)
    assert sorted(result.rows) == sorted(flat.rows)


def test_min_max_expression_flattens_locally(branch_db):
    query = branch_query(
        aggregates=(aggregate("min", col("price") + col("qty"), "lo"),)
    )
    result, _, trace = FDBEngine().execute_traced(query, branch_db)
    assert sorted(result.rows) == [(1, 12), (2, 9)]
    assert trace.expression_stats.flatten_events > 0


def test_opaque_quotient_across_branches(branch_db):
    # price/qty does not distribute: the involved fragments flatten.
    query = branch_query(
        aggregates=(aggregate("sum", col("price") / col("qty"), "ratio"),)
    )
    result, _, trace = FDBEngine().execute_traced(query, branch_db)
    flat = RDBEngine().execute(query, branch_db)
    for (k1, v1), (k2, v2) in zip(sorted(result.rows), sorted(flat.rows)):
        assert k1 == k2 and v1 == pytest.approx(v2)
    assert trace.expression_stats.flatten_events > 0


def test_expression_over_group_attribute(branch_db):
    # SUM(k * price) GROUP BY k: the group value joins the forest as a
    # one-entry fragment.
    query = branch_query(
        aggregates=(aggregate("sum", col("k") * col("price"), "kp"),)
    )
    result, _, _ = FDBEngine().execute_traced(query, branch_db)
    flat = RDBEngine().execute(query, branch_db)
    assert sorted(result.rows) == sorted(flat.rows)


def test_expression_where_filters_input(branch_db):
    query = branch_query(
        comparisons=(Comparison(col("price") * 2, ">", 10),),
        aggregates=(aggregate("sum", "price", "s"),),
    )
    result, _, _ = FDBEngine().execute_traced(query, branch_db)
    flat = RDBEngine().execute(query, branch_db)
    assert sorted(result.rows) == sorted(flat.rows)
    assert sorted(result.rows) == [(1, 60)]  # k=2's price 5 filtered out


def test_expression_where_spanning_relations_rejected(branch_db):
    query = branch_query(
        comparisons=(Comparison(col("price") * col("qty"), ">", 0),),
    )
    with pytest.raises(QueryError, match="more than one input relation"):
        FDBEngine().execute_traced(query, branch_db)


def test_scalar_expression_aggregate_without_grouping(branch_db):
    query = branch_query(group_by=())
    result, _, trace = FDBEngine().execute_traced(query, branch_db)
    flat = RDBEngine().execute(query, branch_db)
    assert result.rows == flat.rows == [(170,)]
    assert trace.expression_stats.flatten_events == 0


def test_exhaustive_optimizer_handles_expressions(branch_db):
    query = branch_query()
    result, _, _ = FDBEngine(optimizer="exhaustive").execute_traced(
        query, branch_db
    )
    assert sorted(result.rows) == [(1, 150), (2, 20)]


@pytest.mark.parametrize("optimizer", ["greedy", "exhaustive", "cost"])
def test_ungrouped_product_aggregate_all_optimizers(branch_db, optimizer):
    """Regression: the searching strategies once folded qty beneath the
    node already carrying sum(price) partials — nesting both halves of
    a coupled term on one root-to-leaf path, which the final expression
    pass cannot recover (CompositionError).  Coupled attributes already
    aggregated on the ancestor path now count against the γ budget."""
    query = branch_query(group_by=())
    result, _, _ = FDBEngine(optimizer=optimizer).execute_traced(
        query, branch_db
    )
    assert result.rows == [(170,)]


def test_expression_stats_describe():
    stats = agg.ExpressionStats()
    stats.native_terms = 2
    assert "no flattening" in stats.describe()
    stats.record_flatten(7)
    assert "7 row(s)" in stats.describe()


def test_computed_columns_on_fdb(branch_db):
    from repro.query import ComputedColumn

    query = Query(
        relations=("S",),
        projection=("k",),
        computed=(ComputedColumn(col("price") * 2, "double"),),
    )
    result, _, _ = FDBEngine().execute_traced(query, branch_db)
    assert sorted(result.rows) == [(1, 20), (1, 40), (2, 10)]
    flat = RDBEngine().execute(query, branch_db)
    assert sorted(result.rows) == sorted(flat.rows)


def test_order_by_computed_alias(branch_db):
    from repro.query import ComputedColumn

    query = Query(
        relations=("S",),
        projection=("k",),
        computed=(ComputedColumn(col("price") * 2, "double"),),
    ).with_order([("double", "desc")])
    result, _, _ = FDBEngine().execute_traced(query, branch_db)
    assert result.rows == [(1, 40), (1, 20), (2, 10)]


def test_deep_expression_three_branches():
    db = Database(
        [
            Relation(("k", "a"), [(1, 2), (1, 3), (2, 1)], "A"),
            Relation(("k", "b"), [(1, 5), (2, 7)], "B"),
            Relation(("k", "c"), [(1, 11), (2, 13), (2, 17)], "C"),
        ]
    )
    query = Query(
        relations=("A", "B", "C"),
        group_by=("k",),
        aggregates=(
            aggregate("sum", col("a") * col("b") * col("c") + col("a"), "s"),
        ),
    )
    result, _, trace = FDBEngine().execute_traced(query, db)
    flat = RDBEngine().execute(query, db)
    assert sorted(result.rows) == sorted(flat.rows)
    assert trace.expression_stats.flatten_events == 0


# A factor reading the grouping attribute jointly with another one: the
# γ runs at the end of the group path, bound to each context's k.
BOUND_SPECS = [
    aggregate("sum", col("price") / col("k"), "v"),
    aggregate("min", col("price") * col("k"), "v"),
    aggregate("avg", col("price") / col("k"), "v"),
    aggregate("max", col("price") - col("k") * col("qty"), "v"),
]


@pytest.mark.parametrize("having", [False, True])
@pytest.mark.parametrize("output", ["flat", "factorised"])
@pytest.mark.parametrize(
    "spec", BOUND_SPECS, ids=lambda spec: f"{spec.function}({spec.attribute})"
)
def test_aggregate_reading_a_grouping_attribute_jointly(
    branch_db, spec, output, having
):
    query = branch_query(
        aggregates=(spec, aggregate("count", "price", "n")),
        having=(Having("v", ">", 5),) if having else (),
    )
    result, _, trace = FDBEngine(output=output).execute_traced(query, branch_db)
    flat = RDBEngine().execute(query, branch_db)
    got = sorted(result.iter_tuples() if output == "factorised" else result.rows)
    want = sorted(flat.rows)
    assert len(got) == len(want) > 0
    for row, expected in zip(got, want):
        assert row == pytest.approx(expected)
    assert trace.expression_stats.flatten_events > 0


@pytest.mark.parametrize("output", ["flat", "factorised"])
def test_count_of_a_column_is_the_count(branch_db, output):
    # COUNT(price) reads the count component, grouped by price or not.
    for group in (("k",), ("price",)):
        query = branch_query(
            group_by=group,
            aggregates=(
                aggregate("count", "price", "n"),
                aggregate("sum", "qty", "q"),
            ),
        )
        result = FDBEngine(output=output).execute(query, branch_db)
        got = sorted(result.iter_tuples() if output == "factorised" else result.rows)
        assert got == sorted(RDBEngine().execute(query, branch_db).rows)


# ---------------------------------------------------------------------------
# Expression selections run on the factorisation
# ---------------------------------------------------------------------------
@pytest.fixture()
def view_db(branch_db):
    """branch_db plus V = S ⋈ T registered over k → (price, qty): the
    attributes of ``price * qty`` sit on independent branches."""
    tree = build_ftree(
        [("k", ["price", "qty"])],
        keys={"k": {"S", "T"}, "price": {"S"}, "qty": {"T"}},
    )
    inputs = [branch_db.flat("S"), branch_db.flat("T")]
    branch_db.add_factorised("V", factorise(inputs, tree, check=True))
    branch_db.defer_flat("V", ("k", "price", "qty"))
    return branch_db


def _rows(database, sql: str, engine: str) -> list:
    with connect(database, engine=engine) as session:
        return [tuple(row) for row in session.sql(sql).rows]


def _assert_as_sqlite(database, sql: str, engine: str) -> None:
    got, want = _rows(database, sql, engine), _rows(database, sql, "sqlite")
    if "ORDER BY" not in sql:
        got, want = sorted(got), sorted(want)
    assert got == want


VIEW_SHAPES = [
    "SELECT k, price, qty FROM V WHERE price * qty > 25",
    "SELECT k, SUM(price) AS s FROM V WHERE price * qty > 25 GROUP BY k",
    "SELECT k, SUM(price * qty) AS s FROM V WHERE price * qty > 25 GROUP BY k",
    "SELECT COUNT(*) AS n FROM V WHERE price * qty > 25",
    "SELECT k, price, qty FROM V WHERE price * qty > 25 ORDER BY qty LIMIT 1",
]


@pytest.mark.parametrize("engine", ["fdb", "fdb-factorised"])
@pytest.mark.parametrize("sql", VIEW_SHAPES)
def test_expression_selection_across_view_branches(view_db, sql, engine):
    (planned,) = FDBEngine().compile(parse_query(sql), view_db).inputs
    assert planned.registered
    assert [str(step) for step in planned.swaps] == ["χ↑price"]
    _assert_as_sqlite(view_db, sql, engine)


def test_expression_selection_reads_the_view_not_its_flat_copy(view_db):
    sql = VIEW_SHAPES[0]
    with connect(view_db) as session:
        got = sorted(session.sql(sql).rows)
    assert not view_db.relations["V"].rows  # flat V never derived
    assert got == sorted(_rows(view_db, sql, "sqlite"))


@pytest.mark.parametrize("engine", ["fdb", "fdb-factorised"])
def test_expression_selection_on_one_path_of_a_flat_input(engine):
    orders = Relation(
        ("customer", "price", "qty"),
        [("a", 10, 20), ("a", 50, 1), ("b", 30, 4), ("b", 60, 2), ("c", 5, 5)],
        "Orders",
    )
    database = Database([orders])
    for sql in (
        "SELECT customer, price, qty FROM Orders WHERE price * qty > 100",
        "SELECT customer, SUM(qty) AS q FROM Orders WHERE price * qty > 100 "
        "GROUP BY customer",
    ):
        _assert_as_sqlite(database, sql, engine)


@pytest.mark.parametrize("engine", ["fdb", "fdb-factorised"])
@pytest.mark.parametrize("condition", ["2 * 3 > 1", "2 * 3 < 1"])
def test_attribute_free_selection(view_db, engine, condition):
    for source in ("V", "S"):
        sql = f"SELECT COUNT(*) AS n FROM {source} WHERE {condition}"
        _assert_as_sqlite(view_db, sql, engine)


def test_e5_keeps_the_flat_copy_of_r1_underived():
    from repro.data.workloads import FULL_WORKLOAD, build_workload_database

    database = build_workload_database(scale=0.25, seed=7)
    query = FULL_WORKLOAD["E5"].query
    with connect(database) as session:
        got = session.execute(query).rows
    assert not database.relations["R1"].rows
    with connect(database, engine="sqlite") as oracle:
        assert sorted(got) == sorted(oracle.execute(query).rows)


# Each bad selection, and the condition or expression its error names.
BAD_ARITHMETIC = [
    ("SELECT item FROM R WHERE price > 'abc'", QueryError, "price > 'abc'"),
    ("SELECT item FROM R WHERE price + item > 1", ExprError, "price + item"),
    ("SELECT item FROM R WHERE price / 0 > 1", ExprError, "price / 0"),
]


@pytest.mark.parametrize("engine", ["fdb", "fdb-factorised", "rdb"])
@pytest.mark.parametrize("sql,error,named", BAD_ARITHMETIC)
def test_bad_arithmetic_in_a_selection_names_it(pizzeria, sql, error, named, engine):
    with connect(pizzeria, engine=engine) as session:
        with pytest.raises(error, match=re.escape(f"cannot evaluate {named}")):
            session.sql(sql)


def test_bad_arithmetic_over_http_is_a_bad_request(pizzeria):
    from repro.server import Client, Server, ServerError

    with Server(pizzeria, port=0, pool_size=1) as server:
        with Client(port=server.port) as client:
            with pytest.raises(ServerError) as raised:
                client.query(BAD_ARITHMETIC[2][0])
    assert raised.value.status == 400
    assert "price / 0" in str(raised.value)


def test_unknown_attribute_in_a_constant_selection_fails_prepare(pizzeria):
    with connect(pizzeria) as session:
        prepared = session.prepare("SELECT customer FROM R WHERE nosuch > 1")
        for compile_or_run in (prepared.explain, prepared.run):
            with pytest.raises(QueryError, match="unknown attribute 'nosuch'"):
                compile_or_run()


@pytest.mark.parametrize("engine", ["fdb", "fdb-factorised"])
@pytest.mark.parametrize("condition", ["2 * 3 < 1", "c > 100", "c * 2 > 100"])
def test_emptied_one_attribute_input_projects_to_nothing(engine, condition):
    # Projecting away an emptied single-node root keeps ∅ empty.
    database = Database(
        [
            Relation(("a", "b"), [(1, 2), (3, 4)], "A"),
            Relation(("c",), [(5,), (6,)], "B"),
        ]
    )
    for select in ("a", "c"):
        sql = f"SELECT {select} FROM A, B WHERE {condition}"
        assert _rows(database, sql, engine) == _rows(database, sql, "sqlite") == []
