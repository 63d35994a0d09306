"""Enumeration leaves no factorisation to the cyclic collector.

Every aggregate and ordered statement of the benchmark's read
workloads runs with the collector off and ``gc.DEBUG_SAVEALL`` on;
the collection afterwards must find no union among the unreachable
objects — a union there means some generator or closure kept a
factorisation alive in a reference cycle after its query returned.
"""

from __future__ import annotations

import gc
from types import FunctionType

import pytest

from repro import connect
from repro.core.frep import CUnion
from repro.data.workloads import build_workload_database

_Q3 = "SELECT date, package, SUM(price) AS total FROM R1 GROUP BY date, package"

#: The benchmark's aggregate and ordered shapes, constants written in.
STATEMENTS = {
    "Q2": "SELECT customer, SUM(price) AS revenue FROM R1 WHERE price > 5 "
    "GROUP BY customer",
    "Q4": "SELECT package, SUM(price) AS total FROM R1 WHERE price > 5 "
    "GROUP BY package",
    "Q5": "SELECT SUM(price) AS total FROM R1 "
    "WHERE date >= 'd0000002' AND date < 'd0000009'",
    "Q7": "SELECT customer, SUM(price) AS revenue FROM R1 WHERE price > 5 "
    "GROUP BY customer ORDER BY revenue",
    "E1": "SELECT customer, SUM(price * 2 + 1) AS adjusted FROM R1 "
    "WHERE date >= 'd0000002' AND date < 'd0000009' GROUP BY customer",
    "E2": "SELECT package, SUM(price * price) AS sum_sq FROM R1 "
    "WHERE price > 5 GROUP BY package",
    "E3": "SELECT date, AVG(price * 3 - 1) AS mean_scaled FROM R1 "
    "WHERE date >= 'd0000002' AND date < 'd0000005' GROUP BY date",
    "Q1": "SELECT package, date, customer, SUM(price) AS total FROM R1 "
    "GROUP BY package, date, customer",
    "Q3": _Q3,
    "Q8": _Q3 + " ORDER BY date, package",
    "Q9": _Q3 + " ORDER BY package, date",
    "Q13": "SELECT * FROM R3 ORDER BY customer, date, package",
    "Q11": "SELECT * FROM R2 ORDER BY package, item, date",
    "Q12": "SELECT * FROM R2 ORDER BY date, package, item",
    "slice": "SELECT * FROM R2 WHERE package = 'p00003' "
    "ORDER BY package, date, item",
    "top3": "SELECT customer, SUM(price) AS revenue FROM R1 "
    "GROUP BY customer ORDER BY revenue DESC",
}


@pytest.fixture(scope="module")
def database():
    return build_workload_database(scale=0.25, seed=7)


@pytest.fixture()
def saved_garbage():
    """Unreachable objects of the test body, in ``gc.garbage``."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield gc.garbage
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("limit", [None, 1, 1000], ids=["drained", "limit1", "limit1000"])
@pytest.mark.parametrize("prepared", [False, True], ids=["adhoc", "prepared"])
@pytest.mark.parametrize("name", sorted(STATEMENTS))
def test_no_union_is_left_to_the_collector(
    database, saved_garbage, name, prepared, limit
):
    sql = STATEMENTS[name] + ("" if limit is None else f" LIMIT {limit}")
    with connect(database, cache=False) as session:
        if prepared:
            handle = session.prepare(sql)
            rows = handle.run().rows
            rows = handle.run().rows
        else:
            rows = session.sql(sql).rows
        assert limit is None or len(rows) <= limit
        del rows
    gc.collect()
    leaked = [obj for obj in saved_garbage if type(obj) is CUnion]
    assert not leaked, f"{len(leaked)} unions in cyclic garbage after {name}"
    if not prepared:
        # Planning, too, leaves no self-referencing closure behind
        # (pytest's own are not ours to count).
        functions = [
            obj
            for obj in saved_garbage
            if isinstance(obj, FunctionType) and obj.__module__.startswith("repro")
        ]
        assert not functions, (
            f"{len(functions)} functions in cyclic garbage after {name}: "
            f"{sorted({f.__qualname__ for f in functions})}"
        )


def test_abandoned_factorised_enumeration_leaves_no_union(database, saved_garbage):
    """A consumer that stops after the first row abandons the walk."""
    with connect(database, engine="fdb-factorised", cache=False) as session:
        for sql in (STATEMENTS["Q12"], STATEMENTS["Q8"], STATEMENTS["Q13"]):
            result = session.sql(sql)
            assert result.first() is not None
            del result
    gc.collect()
    assert not [obj for obj in saved_garbage if type(obj) is CUnion]
