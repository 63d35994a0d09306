"""Serialisation of f-trees and factorisations.

Materialised views live across sessions in the paper's read-optimised
scenario, so factorisations need a storage format.  This module writes
a compact JSON document: the f-tree (labels, keys, aggregate metadata)
plus the fragment structure as nested lists — per union, one
``[value, [child union, ...]]`` pair per entry.  Loading reconstructs
an identical :class:`repro.core.frep.Factorisation` (round-trip tested).

The format is versioned to allow evolution; unknown versions are
rejected loudly rather than mis-read.
"""

from __future__ import annotations

import json
from typing import Any, IO

from repro.core.frep import CUnion, Factorisation, iter_entries
from repro.core.ftree import AggregateAttribute, FNode, FTree

FORMAT_VERSION = 1


class SerialisationError(ValueError):
    """Raised for malformed or incompatible documents."""


# ---------------------------------------------------------------------------
# f-trees
# ---------------------------------------------------------------------------
def ftree_to_dict(ftree: FTree) -> dict:
    def encode(node: FNode) -> dict:
        out: dict[str, Any] = {
            "keys": sorted(node.keys),
            "children": [encode(child) for child in node.children],
        }
        if node.aggregate is not None:
            out["aggregate"] = {
                "functions": [list(fn) for fn in node.aggregate.functions],
                "over": sorted(map(str, node.aggregate.over)),
                "name": node.aggregate.name,
            }
        else:
            out["attributes"] = list(node.attributes)
        return out

    return {"roots": [encode(root) for root in ftree.roots]}


def ftree_from_dict(document: dict) -> FTree:
    def decode(entry: dict) -> FNode:
        children = [decode(child) for child in entry.get("children", [])]
        keys = entry.get("keys", [])
        if "aggregate" in entry:
            meta = entry["aggregate"]
            label: Any = AggregateAttribute(
                tuple((fn, attr) for fn, attr in meta["functions"]),
                frozenset(meta["over"]),
                meta["name"],
            )
        else:
            label = tuple(entry["attributes"])
        return FNode(label, children, keys)

    try:
        return FTree([decode(root) for root in document["roots"]])
    except (KeyError, TypeError) as error:
        raise SerialisationError(f"malformed f-tree document: {error}") from error


# ---------------------------------------------------------------------------
# factorisations
# ---------------------------------------------------------------------------
def _encode_union(union: CUnion) -> list:
    return [
        [_encode_value(value), [_encode_union(child) for child in children]]
        for value, children in iter_entries(union)
    ]


def _encode_value(value: Any) -> Any:
    if isinstance(value, tuple):  # aggregate component tuples
        return {"t": list(value)}
    return value


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict) and "t" in value:
        return tuple(value["t"])
    return value


def _decode_union(node: FNode, entries: list) -> CUnion:
    # The node supplies the arity: an empty union's entries carry none.
    values: list = []
    columns: tuple[list, ...] = tuple([] for _ in node.children)
    for value, children in entries:
        values.append(_decode_value(value))
        for column, child, fragment in zip(
            columns, node.children, children, strict=True
        ):
            column.append(_decode_union(child, fragment))
    return CUnion(values, columns)


def factorisation_to_dict(fact: Factorisation) -> dict:
    return {
        "version": FORMAT_VERSION,
        "ftree": ftree_to_dict(fact.ftree),
        "roots": [_encode_union(union) for union in fact.roots],
    }


def factorisation_from_dict(document: dict) -> Factorisation:
    version = document.get("version")
    if version != FORMAT_VERSION:
        raise SerialisationError(
            f"unsupported factorisation format version {version!r}"
        )
    ftree = ftree_from_dict(document["ftree"])
    try:
        roots = [
            _decode_union(node, union)
            for node, union in zip(ftree.roots, document["roots"], strict=True)
        ]
    except (TypeError, ValueError) as error:
        raise SerialisationError(
            f"fragments do not fit the document's f-tree: {error}"
        ) from error
    fact = Factorisation(ftree, roots)
    fact.validate()
    return fact


# ---------------------------------------------------------------------------
# file helpers
# ---------------------------------------------------------------------------
def dump(fact: Factorisation, handle: IO[str]) -> None:
    """Write a factorisation as JSON to an open text handle."""
    json.dump(factorisation_to_dict(fact), handle, separators=(",", ":"))


def dumps(fact: Factorisation) -> str:
    return json.dumps(factorisation_to_dict(fact), separators=(",", ":"))


def load(handle: IO[str]) -> Factorisation:
    """Read a factorisation previously written by :func:`dump`."""
    return factorisation_from_dict(json.load(handle))


def loads(text: str) -> Factorisation:
    return factorisation_from_dict(json.loads(text))


def save_view(fact: Factorisation, path: str) -> None:
    """Persist a materialised view to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        dump(fact, handle)


def load_view(path: str) -> Factorisation:
    """Load a materialised view from ``path``."""
    with open(path, encoding="utf-8") as handle:
        return load(handle)
