"""LiveView: maintained aggregate results over the change log."""

import random

import pytest

from repro import Delta, connect
from repro.data.pizzeria import pizzeria_database
from tests.integration.test_group_aggregate_differential import AGGREGATES


@pytest.fixture
def session():
    return connect(pizzeria_database())


def _fresh(session, query):
    return sorted(session.execute(query, engine="rdb").rows)


def test_sum_updates_additively(session):
    query = (
        session.query("R").group_by("customer").sum("price", "revenue")
    )
    live = session.watch(query)
    session.insert("Orders", [("Lucia", "Monday", "Margherita")])
    assert sorted(live.result.rows) == _fresh(session, query.to_query())
    assert live.stats.incremental == 1
    assert live.stats.recomputes == 0
    assert live.stats.rebuilds == 0


def test_count_and_avg(session):
    query = (
        session.query("R")
        .group_by("pizza")
        .count("orders")
        .avg("price", "mean_price")
    )
    live = session.watch(query)
    session.delete("Orders", [("Pietro", "Friday", "Hawaii")])
    session.insert("Items", [("ham", 3)])
    assert sorted(live.result.rows) == _fresh(session, query.to_query())
    assert live.stats.recomputes == 0


def test_group_disappears_when_support_drains(session):
    query = session.query("R").group_by("customer").sum("price", "rev")
    live = session.watch(query)
    session.delete("Orders", [("Pietro", "Friday", "Hawaii")])
    rows = live.result.rows
    assert all(row[0] != "Pietro" for row in rows)
    assert sorted(rows) == _fresh(session, query.to_query())


def test_min_max_recompute_affected_group_only(session):
    query = (
        session.query("R")
        .group_by("pizza")
        .min("price", "cheapest")
        .max("price", "dearest")
    )
    live = session.watch(query)
    live.result  # prime
    # Deleting the base price (6) moves every pizza's extrema.
    session.delete("Items", [("base", 6)])
    assert sorted(live.result.rows) == _fresh(session, query.to_query())
    assert live.stats.recomputes == 0
    assert live.stats.groups_touched > 0


@pytest.mark.parametrize("group", [("customer",), ("customer", "date")])
def test_min_max_of_a_flat_relation_after_deleting_extrema(session, group):
    # Orders is flat: a rerun reads the rows of the dirty groups only.
    query = (
        session.query("Orders").group_by(*group).min("pizza", "lo").max("pizza", "hi")
    )
    live = session.watch(query)
    for row in [("Mario", "Friday", "Margherita"), ("Lucia", "Friday", "Quattro")]:
        session.insert("Orders", [row])
    for row in [("Mario", "Monday", "Capricciosa"), ("Lucia", "Friday", "Quattro")]:
        session.delete("Orders", [row])
        assert sorted(live.result.rows) == _fresh(session, query.to_query())
    assert live.stats.recomputes == 0


def test_having_order_limit_reapplied(session):
    query = (
        session.query("R")
        .group_by("customer")
        .sum("price", "revenue")
        .having("revenue", ">", 5)
        .order_by("revenue", desc=True)
        .limit(2)
    )
    live = session.watch(query)
    session.insert("Orders", [("Lucia", "Monday", "Capricciosa")])
    expected = session.execute(query.to_query(), engine="rdb").rows
    assert live.result.rows == expected


def test_expression_aggregate_maintained(session):
    from repro import col

    query = session.query("R").group_by("customer").sum(
        col("price") * 2, alias="double"
    )
    live = session.watch(query)
    session.insert("Orders", [("Lucia", "Monday", "Margherita")])
    assert sorted(live.result.rows) == _fresh(session, query.to_query())
    assert live.stats.recomputes == 0


def test_filtered_aggregate_maintained(session):
    query = (
        session.query("R")
        .where("price", ">", 1)
        .group_by("customer")
        .sum("price", "rev")
    )
    live = session.watch(query)
    session.insert("Orders", [("Lucia", "Friday", "Capricciosa")])
    assert sorted(live.result.rows) == _fresh(session, query.to_query())
    assert live.stats.recomputes == 0


def test_unsupported_join_query_recomputes(session):
    query = (
        session.query("Orders", "Items")
        .group_by("customer")
        .count("n")
    )
    live = session.watch(query)
    before = sorted(live.result.rows)
    session.insert("Items", [("truffle", 9)])
    after = sorted(live.result.rows)
    assert live.stats.recomputes >= 1
    assert after == sorted(
        session.execute(query.to_query(), engine="rdb").rows
    )
    assert before != after  # the join grew


def test_factorisation_rebuild_does_not_break_live_view(session):
    database = session.database
    query = session.query("R").group_by("customer").sum("price", "rev")
    live = session.watch(query)
    live.result
    # A direct branch-violating insert rebuilds R's factorisation over
    # its path fallback tree — but the change's resolved base rows are
    # still an exact delta, so the live view stays incremental.
    schema = database.flat("R").schema
    row = dict(zip(schema, database.flat("R").rows[0]))
    row["date"], row["customer"] = "Sunday", "Zoe"
    row["item"], row["price"] = "caviar", 42
    session.insert("R", [tuple(row[a] for a in schema)])
    assert database.maintenance.rebuilds == 1
    assert sorted(live.result.rows) == _fresh(session, query.to_query())
    assert live.stats.recomputes == 0


def test_live_view_follows_a_rebuilt_f_tree(session):
    # After a direct insert rebuilds R over a new f-tree, the deltas of
    # later changes come over that tree: the component plan follows it.
    database = session.database
    queries = [
        session.query("R").group_by("customer").sum("price", "rev"),
        session.query("R").group_by("pizza").min("price", "lo").max("price", "hi"),
    ]
    views = [session.watch(query) for query in queries]
    schema = database.flat("R").schema
    row = dict(zip(schema, database.flat("R").rows[0]))
    row["date"], row["customer"] = "Sunday", "Zoe"
    row["item"], row["price"] = "caviar", 42
    session.insert("R", [tuple(row[a] for a in schema)])
    tree = database.get_factorised("R").ftree
    session.delete("Items", [("pineapple", 2)])
    session.insert("Orders", [("Lucia", "Monday", "Hawaii")])
    assert database.maintenance.rebuilds == 1
    assert database.get_factorised("R").ftree is tree
    for live, query in zip(views, queries):
        assert sorted(live.result.rows) == _fresh(session, query.to_query())
        assert live.stats.recomputes == 0
        assert live.stats.deltas_applied == 3
        assert live._plan.tree is tree


def test_rebuilt_routed_view_forces_recompute():
    # A projection view does not represent all of Orders' attributes,
    # so routed maintenance must rebuild it — and the live view over it
    # must fall back to recomputation for that change.
    from repro.core.build import factorise
    from repro.core.ftree import build_ftree
    from repro.data.pizzeria import pizzeria_database

    database = pizzeria_database()
    projection = database.flat("R").project(("pizza", "item", "price"))
    projection.name = "V"
    tree = build_ftree(
        [("pizza", [("item", ["price"])])],
        keys={
            "pizza": {"Orders", "Pizzas"},
            "item": {"Pizzas", "Items"},
            "price": {"Items"},
        },
    )
    database.add_relation(projection)
    database.add_factorised("V", factorise(projection, tree))
    session = connect(database)
    query = session.query("V").group_by("pizza").sum("price", "s")
    live = session.watch(query)
    live.result
    # Margherita's only order disappears: the projection loses its rows.
    session.delete("Orders", [("Mario", "Tuesday", "Margherita")])
    assert database.maintenance.rebuilds >= 1
    assert "not represented" in database.maintenance.rebuild_reasons[-1]
    assert sorted(live.result.rows) == _fresh(session, query.to_query())
    assert all(row[0] != "Margherita" for row in live.result.rows)
    assert live.stats.recomputes >= 1


def test_mutation_through_database_directly_is_observed(session):
    query = session.query("R").group_by("customer").sum("price", "rev")
    live = session.watch(query)
    live.result
    # Bypass the session entirely: the version stamp still propagates.
    session.database.insert("Orders", [("Lucia", "Monday", "Margherita")])
    assert sorted(live.result.rows) == _fresh(session, query.to_query())
    assert live.stats.recomputes == 0


def test_mutation_through_sql_is_observed(session):
    query = session.query("R").group_by("customer").sum("price", "rev")
    live = session.watch(query)
    live.result
    session.sql(
        "INSERT INTO Orders (customer, date, pizza) "
        "VALUES ('Lucia', 'Monday', 'Margherita')"
    )
    assert sorted(live.result.rows) == _fresh(session, query.to_query())


def test_explain_surfaces_maintenance_stats(session):
    live = session.watch(
        session.query("R").group_by("customer").sum("price", "rev")
    )
    session.apply(Delta.insert("Orders", [("Lucia", "Monday", "Margherita")]))
    text = live.result.explain()
    assert "maintenance:" in text
    assert "0 rebuilds" in text
    assert "incremental ratio 1.00" in text
    assert "live view" in text


def test_refresh_counts_as_recompute(session):
    live = session.watch(
        session.query("R").group_by("customer").sum("price", "rev")
    )
    live.refresh()
    assert live.stats.recomputes == 1
    assert live.stats.incremental_ratio < 1.0


def test_live_view_convenience_surface(session):
    live = session.watch(
        session.query("R").group_by("customer").sum("price", "rev")
    )
    assert len(live) == len(list(live)) == len(live.rows)
    assert "customer" in live.pretty()
    assert "LiveView" in repr(live)


def test_global_aggregate_over_drained_relation_matches_engines():
    from repro import connect as _connect
    from repro.relational.relation import Relation as _Relation

    session = _connect(_Relation(("a", "b"), [(1, 5), (2, 7)], "U"))
    live = session.watch(session.query("U").count("n").sum("b", "t"))
    session.delete("U")  # drain it completely
    assert live.result.rows == [(0, None)]
    assert live.result.rows == session.execute(
        session.query("U").count("n").sum("b", "t").to_query(), engine="fdb"
    ).rows


@pytest.mark.parametrize("aggregate", ["SUM(b) AS s", "MIN(b) AS s, COUNT(*) AS n"])
def test_grand_total_over_no_matching_row_takes_later_inserts(aggregate):
    from repro.relational.relation import Relation

    session = connect(Relation(("a", "b"), [(1, 5), (2, 7)], "U"))
    sql = f"SELECT {aggregate} FROM U WHERE b > 100"
    live = session.watch(sql)
    assert live.result.rows == session.sql(sql).rows
    session.insert("U", [(3, 150)])
    assert live.result.rows == session.sql(sql).rows
    # The same from an empty target, after a drain and a refresh.
    session.delete("U")
    live.refresh()
    assert live.result.rows == session.sql(sql).rows
    session.insert("U", [(4, 120)])
    assert live.result.rows == session.sql(sql).rows
    assert live.stats.recomputes == 1


def test_live_stats_count_rows(session):
    live = session.watch(
        session.query("R").group_by("customer").sum("price", "rev")
    )
    session.insert("Orders", [("Lucia", "Monday", "Margherita")])
    assert live.result is not None
    assert live.stats.rows_inserted > 0
    assert "+0/-0" not in live.result.explain().splitlines()[-1]


def _rounded(rows) -> list:
    return sorted(
        tuple(round(v, 6) if isinstance(v, float) else v for v in row)
        for row in rows
    )


@pytest.mark.parametrize("aggregate", AGGREGATES)
@pytest.mark.parametrize("group", ["", "customer"])
def test_live_view_of_every_aggregate_equals_fdb(group, aggregate):
    rng = random.Random(f"live/{group}/{aggregate}")
    session = connect(pizzeria_database())
    select = f"{group}, " if group else ""
    sql = f"SELECT {select}{aggregate} AS v FROM R"
    sql += f" GROUP BY {group}" if group else ""
    live = session.watch(sql)
    pools = {
        "customer": ["Mario", "Pietro", "Lucia", "Zoe"],
        "date": ["Monday", "Friday", "Sunday"],
        "pizza": ["Margherita", "Capricciosa", "Hawaii"],
        "item": ["base", "ham", "mushrooms", "olives"],
        "price": [1, 2, 3, 6, 9],
    }
    for step in range(30):
        name = rng.choice(("Orders", "Pizzas", "Items"))
        flat = session.database.flat(name)
        if flat.rows and rng.random() < 0.45:
            session.delete(name, [rng.choice(flat.rows)])
        else:
            session.insert(
                name, [tuple(rng.choice(pools[a]) for a in flat.schema)]
            )
        if step % 5 == 4:
            fresh = session.sql(sql, engine="fdb").rows
            assert _rounded(live.rows) == _rounded(fresh), (step, sql)
    assert live.stats.recomputes == 0
    assert live.stats.incremental > 0
