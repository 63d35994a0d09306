"""Unit tests for constant-delay (ordered/grouped) enumeration (Section 4)."""

import pytest

from repro.core import operators as ops
from repro.core.build import factorise, factorise_path
from repro.core.enumerate import (
    EnumerationError,
    group_expansion,
    iter_tuples,
    restructure_for_order,
    supports_grouping,
    supports_order,
)
from repro.core.output import flat_aggregate_output
from repro.query import Query, aggregate
from repro.relational.operators import multiway_join
from repro.relational.relation import Relation
from repro.relational.sort import SortKey, sort_rows


@pytest.fixture()
def pizza_fact(pizzeria_rels, t1):
    return factorise(multiway_join(list(pizzeria_rels)), t1)


# ---------------------------------------------------------------------------
# Theorem 2 characterisation (Example 9)
# ---------------------------------------------------------------------------
SUPPORTED_ORDERS = [
    ("pizza",),
    ("pizza", "date"),
    ("pizza", "date", "customer"),
    ("pizza", "item"),
    ("pizza", "item", "price"),
    ("pizza", "date", "item"),
]
UNSUPPORTED_ORDERS = [
    ("pizza", "customer", "date"),
    ("customer", "pizza"),
    ("date",),
    ("item", "pizza"),
]


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_example9_supported(t1, order):
    assert supports_order(t1, list(order))


@pytest.mark.parametrize("order", UNSUPPORTED_ORDERS)
def test_example9_unsupported(t1, order):
    assert not supports_order(t1, list(order))


def test_supported_orders_allow_desc(t1):
    assert supports_order(t1, [("pizza", "desc"), "date"])


# ---------------------------------------------------------------------------
# Theorem 1 characterisation (Example 10)
# ---------------------------------------------------------------------------
def test_example10_grouping_allows_permutations(t1):
    # All orders of Example 9 and all their permutations group fine.
    assert supports_grouping(t1, ["date", "pizza"])
    assert supports_grouping(t1, ["customer", "date", "pizza"])
    assert supports_grouping(t1, ["item", "pizza"])
    assert supports_grouping(t1, ["pizza"])


def test_grouping_rejects_gaps(t1):
    # customer without date: its parent holds no group attribute.
    assert not supports_grouping(t1, ["pizza", "customer"])
    assert not supports_grouping(t1, ["price"])


# ---------------------------------------------------------------------------
# Ordered enumeration
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_ordered_enumeration_matches_sort(pizza_fact, order):
    rows = list(iter_tuples(pizza_fact, list(order)))
    expected = sort_rows(rows, pizza_fact.schema(), list(order))
    assert rows == expected
    assert len(rows) == 13


def test_descending_enumeration(pizza_fact):
    rows = list(iter_tuples(pizza_fact, [("pizza", "desc"), "date"]))
    expected = sort_rows(
        rows, pizza_fact.schema(), [("pizza", "desc"), "date"]
    )
    assert rows == expected
    assert rows[0][pizza_fact.schema().index("pizza")] == "Margherita"


def test_mixed_direction_enumeration(pizza_fact):
    order = ["pizza", ("date", "desc"), "customer"]
    rows = list(iter_tuples(pizza_fact, order))
    assert rows == sort_rows(rows, pizza_fact.schema(), order)


def test_unsupported_order_raises(pizza_fact):
    with pytest.raises(EnumerationError):
        list(iter_tuples(pizza_fact, ["customer", "pizza"]))


def test_limit(pizza_fact):
    rows = list(iter_tuples(pizza_fact, ["pizza"], limit=3))
    assert len(rows) == 3


def test_unordered_enumeration_complete(pizza_fact, pizzeria_rels):
    joined = multiway_join(list(pizzeria_rels))
    rows = set(iter_tuples(pizza_fact))
    expected = set(
        joined.project(pizza_fact.schema(), dedup=False).rows
    )
    assert rows == expected


# ---------------------------------------------------------------------------
# Restructuring (Section 4.2)
# ---------------------------------------------------------------------------
def test_restructure_for_order_example2(pizza_fact):
    """Example 2: (customer, pizza, item, price) via pushing customer up."""
    order = ["customer", "pizza", "item", "price"]
    swaps = restructure_for_order(pizza_fact.ftree, order)
    assert swaps == ["customer", "customer"]
    current = pizza_fact
    for child in swaps:
        current = ops.swap(current.ftree, child).run(current)
    rows = list(iter_tuples(current, order))
    assert rows == sort_rows(rows, current.schema(), order)


def test_restructure_noop_when_supported(pizza_fact):
    assert restructure_for_order(pizza_fact.ftree, ["pizza", "date"]) == []


def test_q12_single_swap(tiny_workload_db):
    """Experiment 4: Q12's order needs exactly one swap on the view."""
    fact = tiny_workload_db.get_factorised("R2")
    swaps = restructure_for_order(fact.ftree, ["date", "package", "item"])
    assert swaps == ["date"]


def test_q11_no_restructuring(tiny_workload_db):
    """Experiment 4: the view supports Q11's order with no work at all."""
    fact = tiny_workload_db.get_factorised("R2")
    assert supports_order(fact.ftree, ["package", "item", "date"])


# ---------------------------------------------------------------------------
# Grouped enumeration with leftovers
# ---------------------------------------------------------------------------
def _group_rows(fact, group, order=()):
    query = Query(
        relations=("T",),
        group_by=tuple(group),
        aggregates=(aggregate("count", None, "n"),),
        order_by=tuple(SortKey(a, d == "desc") for a, d in order),
    )
    return flat_aggregate_output(query, fact).rows


def _names(nodes):
    return {node.name for node in nodes}


def test_group_contexts_yield_assignments(pizza_fact):
    sequence, leftovers = group_expansion(pizza_fact.ftree, ["pizza"])
    assert _names(sequence) == {"pizza"}
    # Leftovers per pizza: the date and item fragments.
    assert _names(leftovers) == {"date", "item"}
    assert [row[0] for row in _group_rows(pizza_fact, ["pizza"])] == [
        "Capricciosa",
        "Hawaii",
        "Margherita",
    ]


def test_group_contexts_two_levels(pizza_fact):
    sequence, leftovers = group_expansion(pizza_fact.ftree, ["pizza", "date"])
    assert _names(sequence) == {"pizza", "date"}
    assert _names(leftovers) == {"customer", "item"}
    assert len(_group_rows(pizza_fact, ["pizza", "date"])) == 4


def test_group_contexts_ordering(pizza_fact):
    rows = _group_rows(pizza_fact, ["pizza"], [("pizza", "desc")])
    assert [row[0] for row in rows] == ["Margherita", "Hawaii", "Capricciosa"]


def test_group_contexts_unsupported_group(pizza_fact):
    with pytest.raises(EnumerationError):
        group_expansion(pizza_fact.ftree, ["customer"])


def test_group_contexts_order_outside_group(pizza_fact):
    with pytest.raises(EnumerationError):
        group_expansion(pizza_fact.ftree, ["pizza"], ["date"])


def test_group_contexts_empty_group(pizza_fact):
    sequence, leftovers = group_expansion(pizza_fact.ftree, [])
    assert sequence == []
    assert _names(leftovers) == {"pizza"}
    assert _group_rows(pizza_fact, []) == [(13,)]


def test_constant_delay_prefix_cheap():
    """First tuples of a huge ordered result come out without a full scan."""
    relation = Relation(("a", "b"), [(i, i % 97) for i in range(30_000)])
    fact = factorise_path(relation, "R")
    import itertools
    import time

    start = time.perf_counter()
    first = list(itertools.islice(iter_tuples(fact, ["a"]), 10))
    elapsed = time.perf_counter() - start
    assert len(first) == 10
    assert elapsed < 0.1  # far below a full enumeration
