"""fdb and fdb-factorised against sqlite over grouped aggregates of R1.

Eight groupings × eleven aggregates (attribute, expression, extremum of
an expression, quotient by a constant, COUNT of a column) × with and
without a HAVING on the aggregate's alias, and ordered by that alias
with and without a LIMIT: 352 statements at scale 0.25, floats
compared rounded.  ``SUM(price * price)`` grouped by ``customer`` once
raised a CompositionError under the cost optimiser (a count aggregate
swapped above ``price``), and ``COUNT(price)`` ordered by its alias
once raised an ExprError (its final leaf was keyed ``("count",
"price")``, its γ component ``("count", None)``).  Over a zero-row
input (``WHERE price > 1000000``) the ungrouped statements yield SQL's
one row (COUNT 0, every other aggregate NULL), which HAVING filters
like any group's.
"""

import pytest

from repro import connect
from repro.data.workloads import build_workload_database

GROUPS = [
    "",
    "customer",
    "date",
    "package",
    "price",
    "date, customer",
    "package, date",
    "item, price",
]
AGGREGATES = [
    "COUNT(*)",
    "COUNT(price)",
    "SUM(price)",
    "AVG(price)",
    "MIN(price)",
    "MAX(price)",
    "SUM(price * price)",
    "SUM(price * 2 + 1)",
    "AVG(price * 3 - 1)",
    "MAX(price * 2 - 1)",
    "SUM(price / 4)",
]
ENGINES = ("fdb", "fdb-factorised", "sqlite")


@pytest.fixture(scope="module")
def sessions():
    database = build_workload_database(scale=0.25, seed=7)
    opened = {engine: connect(database, engine=engine) for engine in ENGINES}
    yield opened
    for session in opened.values():
        session.close()


def _statement(group: str, aggregate: str, having: bool, where: str = "") -> str:
    select = f"{group}, " if group else ""
    sql = f"SELECT {select}{aggregate} AS v FROM R1{where}"
    if group:
        sql += f" GROUP BY {group}"
    return sql + (" HAVING v > 100" if having else "")


def _rounded(rows) -> list:
    return sorted(
        tuple(round(v, 6) if isinstance(v, float) else v for v in row)
        for row in rows
    )


@pytest.mark.parametrize("aggregate", AGGREGATES)
@pytest.mark.parametrize("group", GROUPS)
def test_grouped_aggregates_match_sqlite(sessions, group, aggregate):
    for having in (False, True):
        sql = _statement(group, aggregate, having)
        want = _rounded(sessions["sqlite"].sql(sql).rows)
        for engine in ENGINES[:2]:
            assert _rounded(sessions[engine].sql(sql).rows) == want, (engine, sql)


@pytest.mark.parametrize("aggregate", AGGREGATES)
@pytest.mark.parametrize("group", ["", "customer"])
def test_aggregates_over_zero_rows_match_sqlite(sessions, group, aggregate):
    kept = "COUNT" in aggregate  # 0 passes ``v < 100``; NULL passes nothing
    for having, rows in (("", 1), (" HAVING v > 100", 0), (" HAVING v < 100", kept)):
        sql = _statement(group, aggregate, False, " WHERE price > 1000000") + having
        want = _rounded(sessions["sqlite"].sql(sql).rows)
        assert len(want) == (0 if group else rows), sql
        for engine in ENGINES[:2]:
            assert _rounded(sessions[engine].sql(sql).rows) == want, (engine, sql)


def _values(rows) -> list:
    """The alias column in row order: ties may come in any order."""
    return [round(row[-1], 6) if isinstance(row[-1], float) else row[-1]
            for row in rows]


@pytest.mark.parametrize("aggregate", AGGREGATES)
@pytest.mark.parametrize("group", GROUPS)
def test_ordered_by_alias_matches_sqlite(sessions, group, aggregate):
    sql = _statement(group, aggregate, having=False) + " ORDER BY v"
    want = sessions["sqlite"].sql(sql).rows
    for engine in ENGINES[:2]:
        got = sessions[engine].sql(sql).rows
        assert _values(got) == _values(want), (engine, sql)
        assert _rounded(got) == _rounded(want), (engine, sql)
        top = sessions[engine].sql(sql + " LIMIT 3").rows
        assert _values(top) == _values(want)[:3], (engine, sql)
        assert set(_rounded(top)) <= set(_rounded(want)), (engine, sql)


@pytest.mark.parametrize("engine", ENGINES[:2])
@pytest.mark.parametrize(
    "sql",
    [
        "SELECT customer, COUNT(item) AS n FROM R1 GROUP BY customer "
        "ORDER BY n",
        "SELECT COUNT(item) AS n FROM R1 ORDER BY n",
    ],
)
def test_count_of_a_text_column_ordered_by_alias(sessions, sql, engine):
    want = sessions["sqlite"].sql(sql).rows
    got = sessions[engine].sql(sql).rows
    assert _values(got) == _values(want), sql
    assert _rounded(got) == _rounded(want), sql
