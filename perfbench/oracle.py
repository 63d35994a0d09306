"""Result comparison against the ``sqlite`` engine.

Every check runs outside the timed region.  Rows are compared as a
multiset when the statement has no ORDER BY.  With ORDER BY the
projection onto the sort keys must match position by position; rows
that tie on the keys may come in any order, so the remaining columns
are compared per tie group.  Under LIMIT the last tie group may be cut
at a different row by either engine and is compared on its keys only.
"""

from __future__ import annotations

from itertools import groupby


def _value(value):
    # AVG divides in a different order in sqlite; 9 significant digits
    # is far above that difference and far below any wrong answer.
    if isinstance(value, float):
        return float(f"{value:.9g}")
    return value


def normalise(rows) -> list[tuple]:
    return [tuple(_value(v) for v in row) for row in rows]


def order_of(query) -> tuple[tuple[str, ...], bool]:
    """(sort-key attributes, has LIMIT) of a parsed ``repro.query.Query``."""
    return tuple(key.attribute for key in query.order_by), query.limit is not None


def table(out) -> tuple[tuple, list]:
    """(schema, rows) of a session ``Result`` or an HTTP response body."""
    if isinstance(out, dict):
        return tuple(out["columns"]), out["rows"]
    return tuple(out.schema), out.rows


def same_rows(got, want, order_keys=(), limited=False) -> bool:
    """Whether ``got`` is an acceptable answer given the oracle's ``want``.

    Both are what an operation returned (see :func:`table`); columns
    are matched by name, since ``SELECT *`` follows the f-tree in one
    engine and the table in the other.
    """
    (got_schema, got), (schema, want) = table(got), table(want)
    if len(got) != len(want) or sorted(got_schema) != sorted(schema):
        return False
    columns = [got_schema.index(name) for name in schema]
    got = normalise(tuple(row[c] for c in columns) for row in got)
    want = normalise(want)
    if not order_keys:
        return sorted(got, key=repr) == sorted(want, key=repr)
    positions = [schema.index(name) for name in order_keys]

    def key(row):
        return tuple(row[p] for p in positions)

    if [key(row) for row in got] != [key(row) for row in want]:
        return False
    got_groups = [sorted(g, key=repr) for _, g in groupby(got, key)]
    want_groups = [sorted(g, key=repr) for _, g in groupby(want, key)]
    if limited:
        got_groups, want_groups = got_groups[:-1], want_groups[:-1]
    return got_groups == want_groups
