"""Statistics records: per-attribute and per-relation summaries.

Both records are frozen; updating statistics means building new records
(the copy-on-write discipline used across the catalogue), so references
handed to the optimiser stay stable while the cache turns over.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping


@dataclass(frozen=True)
class AttributeStats:
    """Summary of one attribute's value distribution.

    ``distinct`` is the number of distinct values, ``total`` the number
    of observed occurrences (union entries for factorised sources,
    sampled rows for flat ones).
    """

    distinct: int
    total: int


@dataclass(frozen=True)
class RelationStats:
    """Summary of one relation (or registered view).

    ``source`` labels where the numbers came from: ``columnar`` for a
    walk over a resident view's value arrays, ``flat`` for a sampling
    pass.

    ``nesting`` is set when the attribute totals are *entry counts* of
    a resident factorisation: it maps every attribute to the root-to-
    node path of the f-tree the entries were counted over (each node
    named by its first attribute).  The cost model reads the view's
    conditional independences off it.
    """

    name: str
    rows: int
    attributes: Mapping[str, AttributeStats] = field(default_factory=dict)
    source: str = "flat"
    singletons: "int | None" = None
    resident_bytes: "int | None" = None
    nesting: "Mapping[str, tuple[str, ...]] | None" = None

    def renamed(self, mapping: Mapping[str, str]) -> "RelationStats":
        """Statistics under renamed attributes (self-join aliases)."""
        if not mapping:
            return self
        attributes = {
            mapping.get(attribute, attribute): entry
            for attribute, entry in self.attributes.items()
        }
        nesting = self.nesting and {
            mapping.get(attribute, attribute): tuple(
                mapping.get(step, step) for step in path
            )
            for attribute, path in self.nesting.items()
        }
        return replace(self, attributes=attributes, nesting=nesting)

    def extended(
        self, extra: Mapping[str, AttributeStats]
    ) -> "RelationStats":
        """Statistics with additional attribute entries (equivalences)."""
        missing = {
            attribute: entry
            for attribute, entry in extra.items()
            if attribute not in self.attributes
        }
        if not missing:
            return self
        return replace(self, attributes={**self.attributes, **missing})
