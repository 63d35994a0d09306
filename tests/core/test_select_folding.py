"""Constant comparisons on one node cut its level in one σ step."""

from __future__ import annotations

import random

import pytest

from repro import connect
from repro.core import operators as ops
from repro.core.frep import CUnion, Factorisation
from repro.core.ftree import FNode, FTree
from repro.data.workloads import build_workload_database
from repro.query import Comparison

E3 = (
    "SELECT date, AVG(price * 3 - 1) AS mean_scaled FROM R1 "
    "WHERE date >= :lo AND date < :hi GROUP BY date"
)


@pytest.fixture(scope="module")
def database():
    return build_workload_database(scale=0.25, seed=7)


@pytest.fixture(scope="module")
def dates(database):
    orders = database.flat("Orders")
    return sorted({row[orders.position("date")] for row in orders.rows})


def test_a_date_window_runs_as_one_select_step(database, dates):
    lo, hi = dates[3], dates[11]
    with connect(database, cache=False) as session:
        result = session.prepare(E3).run(lo=lo, hi=hi)
        selects = [step for step in result.trace.steps if step.startswith("σ")]
        assert selects == [f"σ[date >= {lo!r} ∧ date < {hi!r}]"]
        (line,) = [row for row in result.explain().splitlines() if "traversal" in row]
        assert line.startswith("σ[date >= ") and "∧ date < " in line
        assert len(result.rows) == 8


RANGES = [
    (">=", "<", 3, 11),
    (">", "<=", 3, 11),
    ("=", "!=", 5, 6),
    ("=", "!=", 5, 5),  # contradictory: nothing passes
    (">=", "<", 11, 3),  # an empty range
]


@pytest.mark.parametrize("first,second,a,b", RANGES)
def test_folded_selections_match_sqlite(database, dates, first, second, a, b):
    params = {"a": dates[a], "b": dates[b]}
    where = f"WHERE date {first} :a AND date {second} :b"
    statements = [
        f"SELECT date, COUNT(*) AS n, SUM(price) AS s FROM R1 {where} "
        "GROUP BY date ORDER BY date",
        f"SELECT customer, date, package FROM R3 {where} "
        "ORDER BY customer, date, package",
    ]
    with connect(database, cache=False) as fdb, connect(
        database, engine="sqlite", cache=False
    ) as oracle:
        for sql in statements:
            got = fdb.sql(sql, params=params)
            assert got.rows == oracle.sql(sql, params=params).rows
            assert sum(step.startswith("σ") for step in got.trace.steps) == 1


OPS = ["<", "<=", ">", ">=", "=", "!="]


@pytest.mark.parametrize("seed", range(12))
def test_one_pass_equals_one_pass_per_comparison(seed):
    """Both ends bisected (or every value tested) in one pass equal the
    comparisons applied one after the other, on unions long enough for
    the bisection path."""
    rng = random.Random(seed)
    tree = FTree([FNode(("a",), [FNode(("b",), [], {"*"})], {"*"})])
    heads = list(range(30))
    bs = [CUnion(sorted(rng.sample(range(100), rng.randrange(0, 60))), ()) for _ in heads]
    fact = Factorisation(tree, [CUnion(heads, (bs,))])
    for _ in range(10):
        conditions = [
            Comparison("b", rng.choice(OPS), rng.randrange(-5, 105))
            for _ in range(rng.randrange(1, 4))
        ]
        one = ops.select(fact.ftree, *conditions).run(fact)
        apart = fact
        for condition in conditions:
            apart = ops.select(apart.ftree, condition).run(apart)
        assert list(one.iter_tuples()) == list(apart.iter_tuples())
        one.validate()
