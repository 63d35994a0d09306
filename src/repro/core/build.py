"""Constructing factorisations of flat relations over f-trees.

This is how materialised views enter the factorised world (Section 1:
"a read-optimised scenario with views materialised as factorisations").
``factorise`` groups the relation recursively along the f-tree: at each
node it groups the current tuple block by the node's attribute class
(values sorted ascending, establishing the Section 4.1 invariant), and
for each value recurses into the children on the restriction of the
block, each child projected onto its own subtree's attributes.

Distinct child subtrees of a node are conditionally independent given
the path to the node — that is exactly what the path constraint of
Proposition 1 guarantees when the f-tree is valid for the data.  When
the f-tree is *not* valid, the construction silently represents the
join of the subtree projections instead of the input; pass
``check=True`` to verify (at a cost) that the input is reproduced.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.frep import CUnion, Factorisation
from repro.core.ftree import FNode, FTree, path_ftree
from repro.relational.relation import Relation

Row = tuple


class FactoriseError(ValueError):
    """Raised when a relation cannot be factorised over a given f-tree."""


def factorise(
    relation: Relation,
    ftree: FTree,
    check: bool = False,
) -> Factorisation:
    """Factorise ``relation`` over ``ftree``.

    The f-tree's atomic attributes must cover the relation's schema
    exactly (aggregate nodes are not allowed — they only appear in
    derived factorisations).
    """
    tree_attrs = ftree.atomic_attributes()
    for node in ftree.nodes():
        if node.is_aggregate:
            raise FactoriseError(
                "cannot factorise a flat relation over an f-tree with "
                f"aggregate node {node.label()!r}"
            )
    if tree_attrs != set(relation.schema):
        raise FactoriseError(
            f"f-tree attributes {sorted(tree_attrs)} do not match relation "
            f"schema {sorted(relation.schema)}"
        )

    position = {attr: i for i, attr in enumerate(relation.schema)}
    roots = [
        _build_union(node, _project(relation.rows, node, position), position)
        for node in ftree.roots
    ]
    fact = Factorisation(ftree, roots)
    if check and sorted(fact.iter_tuples()) != sorted(
        _reorder(relation, fact.schema())
    ):
        raise FactoriseError(
            f"relation {relation.name!r} does not satisfy the join "
            f"dependencies of the f-tree:\n{ftree.pretty()}"
        )
    return fact


def _project(rows: Sequence[Row], node: FNode, position: dict[str, int]) -> list[Row]:
    """Distinct rows projected onto the attributes of ``node``'s subtree."""
    attrs = sorted(node.subtree_atomic_attributes(), key=position.__getitem__)
    cols = [position[a] for a in attrs]
    seen = set()
    out = []
    for row in rows:
        projected = tuple(row[c] for c in cols)
        if projected not in seen:
            seen.add(projected)
            out.append(projected)
    return out


def _build_union(
    node: FNode, rows: Sequence[Row], position: dict[str, int]
) -> CUnion:
    """Build the union for ``node`` from rows over its subtree attrs.

    ``rows`` use a local schema: the subtree's attributes sorted by their
    original positions; ``position`` is remapped accordingly on recursion.
    """
    attrs = sorted(node.subtree_atomic_attributes(), key=position.__getitem__)
    local = {attr: i for i, attr in enumerate(attrs)}
    return _build_union_local(node, list(rows), local)


def _build_union_local(
    node: FNode, rows: list[Row], local: dict[str, int]
) -> CUnion:
    """Group by the node's class, recurse per value, append to columns."""
    class_cols = [local[a] for a in node.attributes]
    head = class_cols[0]
    groups: dict[object, list[Row]] = {}
    for row in rows:
        value = row[head]
        for col in class_cols[1:]:
            if row[col] != value:
                raise FactoriseError(
                    f"attributes {node.attributes!r} form an equivalence "
                    f"class but hold different values {row!r}"
                )
        groups.setdefault(value, []).append(row)

    child_locals = []
    for child in node.children:
        child_attrs = sorted(
            child.subtree_atomic_attributes(), key=local.__getitem__
        )
        child_locals.append(
            (
                [local[a] for a in child_attrs],
                {attr: i for i, attr in enumerate(child_attrs)},
            )
        )

    values = sorted(groups)
    columns: tuple[list, ...] = tuple([] for _ in node.children)
    for value in values:
        block = groups[value]
        for (cols, child_local), child, out_col in zip(
            child_locals, node.children, columns
        ):
            seen = set()
            child_rows = []
            for row in block:
                projected = tuple(row[c] for c in cols)
                if projected not in seen:
                    seen.add(projected)
                    child_rows.append(projected)
            out_col.append(_build_union_local(child, child_rows, child_local))
    return CUnion(values, columns)


def _reorder(relation: Relation, schema: Sequence[str]) -> list[Row]:
    """Rows of ``relation`` reordered to ``schema`` column order."""
    cols = [relation.schema.index(a) for a in schema]
    return [tuple(row[c] for c in cols) for row in relation.rows]


def factorise_path(
    relation: Relation,
    key: str = "",
    order: Sequence[str] | None = None,
) -> Factorisation:
    """Factorise a relation over the path f-tree of its own schema.

    Every relation admits this factorisation (its attributes are mutually
    dependent, Section 2.1); it is the entry representation FDB uses for
    flat inputs.  ``order`` selects the root-to-leaf attribute order.
    """
    ftree = path_ftree(relation.schema, key or relation.name, order)
    return factorise(relation, ftree)
