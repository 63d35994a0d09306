"""Constructing factorisations of relations and their joins over f-trees.

This is how materialised views enter the factorised world (Section 1:
"a read-optimised scenario with views materialised as factorisations").
``factorise`` takes one relation or several and builds the f-tree's
factorisation of their natural join.  At each node it groups every
input that holds the node's attribute class by value and keeps the
values all of them hold, sorted ascending (the Section 4.1 invariant).
For each kept value it recurses into the children with each input's
block projected onto the child's subtree, and drops the value when a
child comes out empty.  The flat join, |D|^ρ* tuples, is never formed:
every union is computed from the inputs within its own context, and the
result stays within the FDB paper's |D|^s↑(T) bound.

Distinct child subtrees of a node are conditionally independent given
the path to the node — that is exactly what the path constraint of
Proposition 1 guarantees when the f-tree is valid for the data.  When
the f-tree is *not* valid, the construction silently represents an
over-approximation (for one input: the join of its subtree
projections); pass ``check=True`` to verify (at a cost) that the join
is reproduced.
"""

from __future__ import annotations

from collections import defaultdict
from operator import itemgetter
from typing import Callable, Sequence

from repro.core.frep import CUnion, Factorisation, empty_cunion
from repro.core.ftree import FNode, FTree, path_ftree
from repro.relational.relation import Relation

Row = tuple


class FactoriseError(ValueError):
    """Raised when relations cannot be factorised over a given f-tree."""


def factorise(
    relations: Relation | Sequence[Relation],
    ftree: FTree,
    check: bool = False,
) -> Factorisation:
    """Factorise ``relations`` (one, or the natural join of several) over ``ftree``.

    The f-tree's atomic attributes must equal the union of the input
    schemas (aggregate nodes are not allowed — they only appear in
    derived factorisations).
    """
    inputs = [relations] if isinstance(relations, Relation) else list(relations)
    for node in ftree.nodes():
        if node.is_aggregate:
            raise FactoriseError(
                "cannot factorise a flat relation over an f-tree with "
                f"aggregate node {node.label()!r}"
            )
    tree_attrs = ftree.atomic_attributes()
    schema = {attr for relation in inputs for attr in relation.schema}
    if tree_attrs != schema:
        raise FactoriseError(
            f"f-tree attributes {sorted(tree_attrs)} do not match relation "
            f"schema {sorted(schema)}"
        )

    roots = [
        _build_union(
            node,
            [
                _shared(relation.rows, cut, node)
                for relation in inputs
                if (cut := _cut(relation.schema, node))
            ],
        )
        for node in ftree.roots
    ]
    if not all(roots):  # the join is empty: so is every root
        roots = [empty_cunion(len(node.children)) for node in ftree.roots]
    fact = Factorisation(ftree, roots)
    if check:
        from repro.relational.operators import multiway_join

        joined = multiway_join(inputs).project(fact.schema(), dedup=False)
        if sorted(fact.iter_tuples()) != sorted(joined.rows):
            raise FactoriseError(
                f"relation {' ⋈ '.join(r.name for r in inputs)!r} does not "
                f"satisfy the join dependencies of the f-tree:\n{ftree.pretty()}"
            )
    return fact


# A block is ``(distinct rows, memo, layout)``: one input's rows over
# the attributes it has in the subtree of the node it is passed to, and
# where that node's class and each child's attributes sit in them.  A
# block that does not depend on the parent's value (its input does not
# hold the parent's class) reaches the node once per value, so it
# carries a memo for its grouping and its projections, keyed by node.


def _picker(indexes: Sequence[int]) -> Callable[[tuple], tuple]:
    """``row -> tuple(row[i] for i in indexes)`` at C speed where possible."""
    if len(indexes) > 1:
        return itemgetter(*indexes)
    (index,) = indexes
    return lambda row: (row[index],)


def _cut(attrs: tuple, node: FNode) -> tuple | None:
    """``(subtree attrs, picker)`` projecting rows over ``attrs`` onto
    ``node``'s subtree; None when the subtree holds none of them."""
    sub = node.subtree_atomic_attributes()
    picks = [i for i, attr in enumerate(attrs) if attr in sub]
    return (tuple(attrs[i] for i in picks), _picker(picks)) if picks else None


def _layout(attrs: tuple, node: FNode) -> tuple[list, list]:
    """``(class columns, per-child cuts)`` of rows over ``attrs``."""
    cols = [i for i, attr in enumerate(attrs) if attr in node.attributes]
    return cols, [_cut(attrs, child) for child in node.children]


def _shared(rows: list[Row], cut: tuple, node: FNode) -> tuple:
    """``rows`` projected by ``cut`` for ``node``, as a memoised block."""
    attrs, pick = cut
    return list(dict.fromkeys(map(pick, rows))), {}, _layout(attrs, node)


def _build_union(node: FNode, blocks: list[tuple]) -> CUnion:
    """The union for ``node`` over the join of ``blocks``."""
    children = node.children
    if not children and len(blocks) == 1 and len(blocks[0][2][0]) == 1:
        return CUnion(sorted([row[0] for row in blocks[0][0]]), ())
    held = []
    whole = []
    for rows, memo, (cols, cuts) in blocks:
        if not cols:
            whole.append((rows, memo, cuts))
        elif memo is not None and node in memo:
            held.append((memo[node], cuts))
        else:
            groups = _group(rows, cols, node)
            if memo is not None:
                memo[node] = groups
            held.append((groups, cuts))
    if len(held) == 1:
        values = sorted(held[0][0])
    else:
        smallest = min((groups for groups, _ in held), key=len)
        values = sorted(v for v in smallest if all(v in g for g, _ in held))
    if not children:
        return CUnion(values, ())

    plans = []
    for at, child in enumerate(children):
        fixed = []
        for rows, memo, cuts in whole:
            if memo is not None and child in memo:
                block = memo[child]
            else:
                block = cuts[at] and _shared(rows, cuts[at], child)
                if memo is not None:
                    memo[child] = block
            if block:
                fixed.append(block)
        per_value = [
            (groups, cuts[at][1], _layout(cuts[at][0], child))
            for groups, cuts in held
            if cuts[at]
        ]
        plans.append((child, fixed, per_value))

    kept = []
    columns: tuple[list, ...] = tuple([] for _ in children)
    for value in values:
        unions = []
        for child, fixed, per_value in plans:
            blocks = fixed + [
                (list(dict.fromkeys(map(pick, groups[value]))), None, layout)
                for groups, pick, layout in per_value
            ]
            union = _build_union(child, blocks)
            if not union.values:
                break
            unions.append(union)
        else:
            kept.append(value)
            for column, union in zip(columns, unions):
                column.append(union)
    return CUnion(kept, columns)


def _group(rows: list[Row], cols: list[int], node: FNode) -> dict:
    """``rows`` grouped by the value of ``node``'s class."""
    head, rest = cols[0], cols[1:]
    groups: defaultdict = defaultdict(list)
    for row in rows:
        value = row[head]
        for col in rest:
            if row[col] != value:
                raise FactoriseError(
                    f"attributes {node.attributes!r} form an equivalence "
                    f"class but hold different values {row!r}"
                )
        groups[value].append(row)
    return groups


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
