"""In-memory relations: named-attribute schemas over lists of tuples.

A :class:`Relation` is the flat data container shared by the whole
repository: the RDB baseline operates on relations directly, the
factorisation builder (:mod:`repro.core.build`) consumes them, and the
FDB engine produces them when flat output is requested.

Relations are *bags* by construction (duplicates may appear after
projection) but most query paths in the paper work with sets; helpers
for both interpretations are provided.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Iterable, Iterator, Sequence

Tuple_ = tuple
Row = tuple


class SchemaError(ValueError):
    """Raised when attribute names do not match a relation's schema."""


class Relation:
    """A named relation: a schema (tuple of attribute names) plus rows.

    Rows are plain Python tuples whose positions align with the schema.
    Values must be orderable within a column (the usual homogeneous-column
    assumption); across columns no relationship is required.
    """

    __slots__ = ("name", "schema", "rows", "_index")

    def __init__(
        self,
        schema: Sequence[str],
        rows: Iterable[Sequence[Any]] = (),
        name: str = "",
    ) -> None:
        schema = tuple(schema)
        if len(set(schema)) != len(schema):
            raise SchemaError(f"duplicate attributes in schema {schema!r}")
        self.name = name or "relation"
        self.schema = schema
        self.rows: list[Row] = [tuple(row) for row in rows]
        for row in self.rows:
            if len(row) != len(schema):
                raise SchemaError(
                    f"row arity {len(row)} does not match schema arity "
                    f"{len(schema)} in relation {self.name!r}"
                )
        # Per attribute position, value -> rows (None: selected on
        # once, not indexed yet); built by select_eq.
        self._index: dict[int, "dict[Any, list[Row]] | None"] = {}

    @classmethod
    def adopt(
        cls, schema: Sequence[str], rows: list[Row], name: str = ""
    ) -> "Relation":
        """Wrap an already-validated row list without copying it.

        The copy-on-write mutation path of :class:`repro.database.
        Database` builds a fresh row list per change and publishes it as
        a new relation object; rows there are known to be tuples of the
        right arity, so the per-row validation of ``__init__`` would
        only re-tuple what is already canonical.  The caller transfers
        ownership of ``rows``.
        """
        relation = cls.__new__(cls)
        relation.name = name or "relation"
        relation.schema = tuple(schema)
        relation.rows = rows
        relation._index = {}
        return relation

    # ------------------------------------------------------------------
    # Basic container behaviour
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __contains__(self, row: Sequence[Any]) -> bool:
        return tuple(row) in set(self.rows)

    def __eq__(self, other: object) -> bool:
        """Set-equality: same schema (as a set) and same set of tuples.

        Attribute order is normalised before comparing so that relations
        produced by different engines compare equal when they represent
        the same mathematical relation.
        """
        if not isinstance(other, Relation):
            return NotImplemented
        if set(self.schema) != set(other.schema):
            return False
        reordered = other.project(self.schema, dedup=False)
        return set(self.rows) == set(reordered.rows)

    def __hash__(self) -> int:  # relations are mutable containers
        raise TypeError("Relation objects are unhashable")

    def __repr__(self) -> str:
        return (
            f"Relation(name={self.name!r}, schema={self.schema!r}, "
            f"rows={len(self.rows)})"
        )

    # ------------------------------------------------------------------
    # Attribute access helpers
    # ------------------------------------------------------------------
    def position(self, attribute: str) -> int:
        """Index of ``attribute`` within the schema."""
        try:
            return self.schema.index(attribute)
        except ValueError:
            raise SchemaError(
                f"attribute {attribute!r} not in schema {self.schema!r} "
                f"of relation {self.name!r}"
            ) from None

    def positions(self, attributes: Sequence[str]) -> list[int]:
        """Indices of several attributes, in the given order."""
        return [self.position(a) for a in attributes]

    def column(self, attribute: str) -> list[Any]:
        """All values of one attribute, in row order (with duplicates)."""
        pos = self.position(attribute)
        return [row[pos] for row in self.rows]

    def distinct_values(self, attribute: str) -> list[Any]:
        """Sorted distinct values of one attribute."""
        return sorted(set(self.column(attribute)))

    def as_dicts(self) -> list[dict[str, Any]]:
        """Rows as attribute→value dictionaries (for display/tests)."""
        return [dict(zip(self.schema, row)) for row in self.rows]

    # ------------------------------------------------------------------
    # Core unary operations (used by the RDB engine and the builder)
    # ------------------------------------------------------------------
    def project(self, attributes: Sequence[str], dedup: bool = True) -> "Relation":
        """Projection π over ``attributes`` (set semantics when ``dedup``)."""
        pos = self.positions(attributes)
        projected = [tuple(row[p] for p in pos) for row in self.rows]
        if dedup:
            projected = _dedup_preserving_order(projected)
        return Relation(attributes, projected, name=f"π({self.name})")

    def select(self, predicate: Callable[[dict[str, Any]], bool]) -> "Relation":
        """Selection σ with an arbitrary Python predicate over attr dicts."""
        schema = self.schema
        kept = [
            row for row in self.rows if predicate(dict(zip(schema, row)))
        ]
        return Relation(schema, kept, name=f"σ({self.name})")

    def select_eq(self, attribute: str, value: Any) -> "Relation":
        """Selection σ_{attribute = value} (the common fast path).

        The first selection on an attribute scans the rows; the second
        indexes the attribute's values (one pass), and every later one
        is a lookup — so a relation selected on once, as a written
        relation is before its next write, pays no index.  Catalogue
        relations are replaced, not changed, on every write, and
        :meth:`extend` drops the index, so it never outlives the rows it
        was built on.
        """
        pos = self.position(attribute)
        index = self._index.get(pos)
        if index is None and pos in self._index:
            index = self._index[pos] = defaultdict(list)
            for row in self.rows:
                index[row[pos]].append(row)
        if index is None:
            self._index[pos] = None  # the next selection on it indexes
            kept = [row for row in self.rows if row[pos] == value]
        else:
            kept = list(index.get(value, ()))
        return Relation.adopt(self.schema, kept, name=f"σ({self.name})")

    def rename(self, mapping: dict[str, str]) -> "Relation":
        """Rename attributes according to ``mapping`` (missing keys kept)."""
        new_schema = tuple(mapping.get(a, a) for a in self.schema)
        return Relation(new_schema, self.rows, name=self.name)

    def distinct(self) -> "Relation":
        """Duplicate elimination."""
        return Relation(
            self.schema, _dedup_preserving_order(self.rows), name=self.name
        )

    def extend(self, rows: Iterable[Sequence[Any]]) -> None:
        """Append rows in place (generator/loader support)."""
        self._index = {}
        for row in rows:
            row = tuple(row)
            if len(row) != len(self.schema):
                raise SchemaError(
                    f"row arity {len(row)} does not match schema arity "
                    f"{len(self.schema)}"
                )
            self.rows.append(row)

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------
    def pretty(self, limit: int = 20) -> str:
        """ASCII table of the first ``limit`` rows (for examples/docs)."""
        header = list(self.schema)
        body = [[str(v) for v in row] for row in self.rows[:limit]]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = [
            " | ".join(h.ljust(w) for h, w in zip(header, widths)),
            "-+-".join("-" * w for w in widths),
        ]
        lines.extend(
            " | ".join(cell.ljust(w) for cell, w in zip(row, widths))
            for row in body
        )
        if len(self.rows) > limit:
            lines.append(f"... ({len(self.rows) - limit} more rows)")
        return "\n".join(lines)


def _dedup_preserving_order(rows: list[Row]) -> list[Row]:
    """Remove duplicate tuples, keeping the first occurrence of each."""
    seen: set[Row] = set()
    out: list[Row] = []
    for row in rows:
        if row not in seen:
            seen.add(row)
            out.append(row)
    return out
