"""Seeded random single-view queries and the parity check between two
engines' answers to them.

Random queries over the FULL_WORKLOAD catalogue's views (grouping,
aggregates, selections, ordering, limits).  Arithmetic stays integral
so float summation order cannot introduce spurious drift.
"""

import random

from repro import col
from repro.query import Comparison, Query, aggregate
from repro.relational.sort import SortKey, sort_rows


def random_query(rng: random.Random, database) -> Query:
    view = rng.choice(["R1", "R1", "R2", "R3", "Orders"])
    schema = list(database.schema(view))
    numeric = [a for a in schema if a == "price"]

    comparisons = []
    if rng.random() < 0.5:
        attribute = rng.choice(schema)
        value = rng.choice(
            [row[schema.index(attribute)] for row in database.flat(view).rows]
        )
        op = rng.choice(["=", "<", "<=", ">", ">=", "!="])
        comparisons.append(Comparison(attribute, op, value))
    if numeric and rng.random() < 0.25:
        comparisons.append(
            Comparison(col("price") * 2 + 1, rng.choice([">", "<="]), 15)
        )

    group_by = tuple(
        rng.sample(schema, rng.randint(0, min(2, len(schema) - 1)))
    )
    aggregates = []
    if rng.random() < 0.6:
        # Sums and averages need a numeric argument; counts and
        # extrema work over any attribute.
        allowed = (
            ["sum", "count", "min", "max", "avg"]
            if numeric
            else ["count", "min", "max"]
        )
        functions = rng.sample(allowed, rng.randint(1, min(3, len(allowed))))
        for index, function in enumerate(functions):
            if function == "count":
                target = None
            elif function in ("sum", "avg"):
                target = (
                    col("price") * 3 + 1
                    if rng.random() < 0.3
                    else "price"
                )
            else:
                target = "price" if numeric else rng.choice(schema)
            aggregates.append(aggregate(function, target, f"a{index}"))

    order_by = ()
    limit = None
    if aggregates:
        if group_by and rng.random() < 0.5:
            order_by = tuple(
                SortKey(a, rng.random() < 0.5) for a in group_by
            )
        if rng.random() < 0.3:
            limit = rng.randint(0, 5)
    projection = None if aggregates else tuple(rng.sample(schema, 2))
    if not aggregates:
        keys = rng.sample(projection, rng.randint(0, 2))
        order_by = tuple(SortKey(a, rng.random() < 0.5) for a in keys)
        if rng.random() < 0.5:
            limit = rng.randint(0, 20)

    return Query(
        relations=(view,),
        comparisons=tuple(comparisons),
        group_by=group_by if aggregates else (),
        aggregates=tuple(aggregates),
        projection=projection,
        order_by=order_by,
        limit=limit,
    )


def assert_parity(query, reference, actual):
    assert actual.schema == reference.schema, query
    if query.limit is None:
        assert sorted(map(repr, actual.rows)) == sorted(
            map(repr, reference.rows)
        ), query
    else:
        # With a limit the kept subset may legitimately differ; check
        # the cardinality and (below) the ordering contract instead.
        assert len(actual.rows) == len(reference.rows), query
    if query.order_by:
        keys = [k.attribute for k in query.order_by]
        positions = [actual.schema.index(k) for k in keys]
        projected = [tuple(row[p] for p in positions) for row in actual.rows]
        assert projected == sort_rows(projected, keys, query.order_by), query
        if query.limit is not None:
            reference_projected = [
                tuple(row[reference.schema.index(k)] for k in keys)
                for row in reference.rows
            ]
            assert projected == reference_projected, query
