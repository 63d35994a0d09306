"""Multi-attribute lexicographic sorting with per-attribute direction.

The paper's ordering operator ``o_G`` sorts lexicographically by a list
of attributes each tagged ascending (↑) or descending (↓).  Python's
``sorted`` is stable, so mixed directions are implemented by a sequence
of stable single-key sorts applied from the least significant attribute
to the most significant one — no assumptions about value types (e.g.
negation tricks) are needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.relational.relation import Relation


@dataclass(frozen=True)
class SortKey:
    """One entry of an order-by list: attribute plus direction."""

    attribute: str
    descending: bool = False

    def __str__(self) -> str:
        return f"{self.attribute}{'↓' if self.descending else '↑'}"


def normalise_order(order: Sequence) -> list[SortKey]:
    """Accept ``"attr"``, ``("attr", "desc")`` or :class:`SortKey` items."""
    keys: list[SortKey] = []
    for item in order:
        if isinstance(item, SortKey):
            keys.append(item)
        elif isinstance(item, str):
            keys.append(SortKey(item))
        else:
            attribute, direction = item
            descending = str(direction).lower() in ("desc", "descending", "↓")
            keys.append(SortKey(attribute, descending))
    return keys


def sort_rows(
    rows: Iterable[tuple],
    schema: Sequence[str],
    order: Sequence,
) -> list[tuple]:
    """Sort raw tuples lexicographically by ``order`` over ``schema``."""
    keys = normalise_order(order)
    schema = list(schema)
    out = list(rows)
    # Stable sorts from the least significant key to the most significant.
    for key in reversed(keys):
        pos = schema.index(key.attribute)
        out.sort(key=lambda row, p=pos: row[p], reverse=key.descending)
    return out


def sort_relation(relation: Relation, order: Sequence) -> Relation:
    """Sorted copy of ``relation`` (the o_G operator of the paper)."""
    for key in normalise_order(order):
        relation.position(key.attribute)  # validate attribute names early
    rows = sort_rows(relation.rows, relation.schema, order)
    return Relation(relation.schema, rows, name=f"o({relation.name})")


def limit_rows(rows: Iterable[tuple], k: int) -> list[tuple]:
    """The λ_k operator: first ``k`` tuples in input order."""
    if k < 0:
        raise ValueError("limit must be non-negative")
    out = []
    for row in rows:
        if len(out) >= k:
            break
        out.append(row)
    return out


def is_sorted_by(relation: Relation, order: Sequence) -> bool:
    """Check whether a relation's rows already satisfy an order-by list."""
    keys = normalise_order(order)
    positions = [relation.position(k.attribute) for k in keys]
    flips = [k.descending for k in keys]

    def keyfn(row: tuple) -> tuple:
        return tuple(
            _DirectedValue(row[p], desc) for p, desc in zip(positions, flips)
        )

    rows = relation.rows
    return all(keyfn(rows[i]) <= keyfn(rows[i + 1]) for i in range(len(rows) - 1))


class _DirectedValue:
    """Comparison wrapper that reverses order for descending keys."""

    __slots__ = ("value", "descending")

    def __init__(self, value, descending: bool) -> None:
        self.value = value
        self.descending = descending

    def __eq__(self, other: object) -> bool:
        # Tuple comparison skips equal leading keys by ``==``: without
        # this, only the first key would ever be compared.
        return isinstance(other, _DirectedValue) and self.value == other.value

    def __le__(self, other: "_DirectedValue") -> bool:
        if self.descending:
            return self.value >= other.value
        return self.value <= other.value
