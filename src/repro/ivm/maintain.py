"""Incremental maintenance of factorised representations under deltas.

The factorisation of a materialised view records, in its f-tree's
dependency *keys*, which input relations own which nodes (Section 2.1:
every relation contributes one key to the nodes holding its
attributes).  This module exploits exactly that provenance: a delta on
relation ``X`` is routed to the branches whose keys contain ``X`` and
spliced into (or pruned from) the sorted unions locally, sharing every
untouched fragment — the read path's succinctness argument applied to
writes.

Two maintenance modes exist:

- *routed* — the delta targets a contributing base relation of a join
  view.  Because distinct branches are conditionally independent given
  the path (Proposition 1), inserting or deleting base tuples only ever
  changes the owned branch per affected context, so routed maintenance
  is always exact.  Fresh fragments (a new package's item branch, say)
  are built by joining the *other* contributors restricted to the
  anchor path's values;
- *direct* — the delta targets the represented relation itself.  A
  single tuple can be spliced exactly only where it does not
  cross-multiply with sibling branches (path f-trees always qualify;
  branching ones only when the sibling fragments are singletons).
  Otherwise the change genuinely breaks the f-tree's independence
  assumptions and :class:`IndependenceViolation` is raised with the
  reason — the caller falls back to re-factorising and records it.

Both modes report the exact view-level delta (rows added and removed,
in the factorisation's schema order) so that downstream consumers —
live aggregate views, forwarded SQL backends — can update additively.

A splice edits the view the kernels read, in its own representation:
the value array and every child column of a touched
:class:`repro.core.frep.CUnion` are spliced as contiguous ranges (one
slice per union, not one object per singleton).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import product as iter_product
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from repro.core.build import factorise
from repro.core.frep import (
    CUnion,
    Factorisation,
    _value_tuple,
    empty_cunion,
    iter_entries,
    singleton_cunion,
)
from repro.core.ftree import FNode, FTree
from repro.ivm.delta import DeltaError
from repro.relational.operators import multiway_join
from repro.relational.relation import Relation

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.database import Database

Row = tuple


class IndependenceViolation(Exception):
    """An exact local splice is impossible; the view must be rebuilt.

    Carries the human-readable reason recorded in
    :class:`repro.ivm.stats.MaintenanceStats`.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class ViewDelta:
    """The effect of one change on one maintained view.

    ``added``/``removed`` are exact row-level deltas over ``schema``
    when the maintenance was incremental; a ``rebuilt`` delta carries
    no rows (consumers must recompute).
    """

    name: str
    schema: tuple[str, ...]
    added: tuple[Row, ...] = ()
    removed: tuple[Row, ...] = ()
    rebuilt: bool = False
    reason: str | None = None
    nodes_touched: int = 0


def drift_magnitude(delta: ViewDelta, view_rows: int = 0) -> float:
    """Changed-row magnitude of one delta for statistics drift.

    Incremental deltas report their exact row churn; a rebuild carries
    no rows, so the caller passes the view's current cardinality and
    the whole view counts as changed (its statistics are wholesale
    stale either way).
    """
    if delta.rebuilt:
        return float(max(view_rows, 1))
    return float(len(delta.added) + len(delta.removed))


@dataclass
class _Splice:
    """Mutable bookkeeping threaded through one maintenance operation."""

    nodes_touched: int = 0
    added: list[Row] = field(default_factory=list)
    removed: list[Row] = field(default_factory=list)


def contributors(fact: Factorisation) -> frozenset[str]:
    """The relation keys of a factorisation's f-tree.

    For views registered via :func:`repro.core.build.factorise` these
    are exactly the contributing relation names — the lineage the
    maintenance routing relies on.  Keys minted to record a dependency
    (``__dep_…``: a path-fallback rebuild ties its nodes with one) name
    no relation and are left out.
    """
    keys: set[str] = set()
    for node in fact.ftree.nodes():
        keys |= node.keys
    return frozenset(key for key in keys if not key.startswith("__dep_"))


# ---------------------------------------------------------------------------
# Union edits: every one returns a fresh union, sharing the fragments
# ---------------------------------------------------------------------------
def _u_children(union: CUnion, index: int) -> tuple:
    """The child fragments of entry ``index`` (a tuple of unions)."""
    return tuple(col[index] for col in union.children)


def _u_insert(union: CUnion, index: int, value: Any, children: tuple) -> CUnion:
    """A copy of ``union`` with a fresh entry spliced in at ``index``.

    The value array and every child column are spliced as contiguous
    ranges; an empty union grows its columns to the entry's arity
    (``empty_cunion(0)`` placeholders carry none).
    """
    cols = union.children
    if len(cols) != len(children):
        cols = tuple([] for _ in children)
    return CUnion(
        union.values[:index] + [value] + union.values[index:],
        tuple(
            col[:index] + [child] + col[index:]
            for col, child in zip(cols, children)
        ),
    )


def _u_replace(union: CUnion, index: int, value: Any, children: tuple) -> CUnion:
    """A copy of ``union`` with entry ``index`` replaced."""
    return CUnion(
        union.values[:index] + [value] + union.values[index + 1 :],
        tuple(
            col[:index] + [child] + col[index + 1 :]
            for col, child in zip(union.children, children)
        ),
    )


def _u_remove(union: CUnion, index: int) -> CUnion:
    """A copy of ``union`` with entry ``index`` pruned."""
    return CUnion(
        union.values[:index] + union.values[index + 1 :],
        tuple(col[:index] + col[index + 1 :] for col in union.children),
    )


def _u_make(entries: Sequence[tuple], arity: int) -> CUnion:
    """A union from ``(value, children)`` pairs."""
    return CUnion(
        [value for value, _ in entries],
        tuple(
            [children[c] for _, children in entries]
            for c in range(arity)
        ),
    )


# ---------------------------------------------------------------------------
# Enumeration helpers (local deltas are exact row sets)
# ---------------------------------------------------------------------------
def _iter_union(node: FNode, union) -> Iterator[Row]:
    for value, children in iter_entries(union):
        yield from _iter_parts(node, value, children)


def _iter_parts(node: FNode, value: Any, children: Sequence) -> Iterator[Row]:
    values = _value_tuple(node, value)
    for rest in _iter_children(node.children, children):
        yield values + rest


def _iter_children(
    nodes: Sequence[FNode], unions: Sequence
) -> Iterator[Row]:
    if not nodes:
        yield ()
        return
    for head in _iter_union(nodes[0], unions[0]):
        for rest in _iter_children(nodes[1:], unions[1:]):
            yield head + rest


def _union_count(node: FNode, union) -> int:
    """Tuples represented by one union (|⟦fragment⟧|)."""
    return sum(
        _parts_count(node, children) for _, children in iter_entries(union)
    )


def _parts_count(node: FNode, children: Sequence) -> int:
    total = 1
    for child_node, child_union in zip(node.children, children):
        total *= _union_count(child_node, child_union)
    return total


def _expand_below(
    node: FNode,
    value: Any,
    children: Sequence,
    branch: int,
    delta_rows: Sequence[Row],
) -> list[Row]:
    """Entry-level delta rows: the branch delta × the sibling fragments."""
    if not delta_rows:
        return []
    values = _value_tuple(node, value)
    per_child: list[list[Row]] = []
    for index, (child_node, child_union) in enumerate(
        zip(node.children, children)
    ):
        if index == branch:
            per_child.append(list(delta_rows))
        else:
            per_child.append(list(_iter_union(child_node, child_union)))
    out: list[Row] = []
    for combo in iter_product(*per_child):
        row = values
        for part in combo:
            row = row + part
        out.append(row)
    return out


def _expand_forest(
    items: Sequence[tuple[FNode, Any]],
    index: int,
    local_rows: Sequence[Row],
) -> list[Row]:
    """Forest-level delta rows: one root's delta × the other roots."""
    if not local_rows:
        return []
    per_root: list[list[Row]] = []
    for position, (node, union) in enumerate(items):
        if position == index:
            per_root.append(list(local_rows))
        else:
            per_root.append(list(_iter_union(node, union)))
    out: list[Row] = []
    for combo in iter_product(*per_root):
        row: Row = ()
        for part in combo:
            row = row + part
        out.append(row)
    return out


def _find(union: CUnion, value: Any) -> int | None:
    """Index of ``value`` in a sorted union, or None."""
    try:
        index = bisect_left(union.values, value)
    except TypeError as error:  # incomparable value for this column
        raise DeltaError(
            f"value {value!r} is not comparable with the column's values: "
            f"{error}"
        ) from None
    if index < len(union.values) and union.values[index] == value:
        return index
    return None


# ---------------------------------------------------------------------------
# Row access
# ---------------------------------------------------------------------------
class _RowView:
    """Attribute-name access into one row of a known column order."""

    __slots__ = ("positions", "row")

    def __init__(self, positions: dict[str, int], row: Row) -> None:
        self.positions = positions
        self.row = row

    def __contains__(self, attribute: str) -> bool:
        return attribute in self.positions

    def get(self, attribute: str) -> Any:
        return self.row[self.positions[attribute]]

    def node_value(self, node: FNode) -> Any:
        """The row's value for an atomic node (class-consistent)."""
        held = [a for a in node.attributes if a in self.positions]
        if not held:
            raise IndependenceViolation(
                f"node {node.label()!r} holds no attribute of the row"
            )
        value = self.row[self.positions[held[0]]]
        for attribute in held[1:]:
            if self.row[self.positions[attribute]] != value:
                raise _ClassMismatch(node)
        return value


class _ClassMismatch(Exception):
    """A row assigns different values to one equivalence class."""

    def __init__(self, node: FNode) -> None:
        super().__init__(node.label())
        self.node = node


def _positions(columns: Sequence[str]) -> dict[str, int]:
    return {name: index for index, name in enumerate(columns)}


def _reorder(row_view: _RowView, schema: Sequence[str]) -> Row:
    return tuple(row_view.get(name) for name in schema)


# ---------------------------------------------------------------------------
# Direct maintenance: the delta targets the represented relation
# ---------------------------------------------------------------------------
def _check_maintainable(fact: Factorisation) -> None:
    for node in fact.ftree.nodes():
        if node.is_aggregate:
            raise IndependenceViolation(
                f"view holds aggregate node {node.label()!r}; aggregate "
                "factorisations are not delta-maintained"
            )


def direct_insert(
    fact: Factorisation,
    rows: Sequence[Row],
    columns: Sequence[str],
    splice: _Splice,
) -> Factorisation:
    """Splice ``rows`` (over ``columns``) into the represented relation."""
    _check_maintainable(fact)
    positions = _positions(columns)
    schema = fact.schema()
    for name in schema:
        if name not in positions:
            raise DeltaError(
                f"insert rows miss view attribute {name!r} "
                f"(columns: {tuple(columns)!r})"
            )
    roots = list(fact.roots)
    for raw in rows:
        view = _RowView(positions, raw)
        try:
            roots, added = _direct_insert_row(fact.ftree, roots, view, splice)
        except _ClassMismatch as mismatch:
            raise DeltaError(
                f"row {raw!r} assigns different values to the attribute "
                f"class {mismatch.node.label()!r}"
            ) from None
        if added:
            splice.added.append(_reorder(view, schema))
    return Factorisation(fact.ftree, roots)


def _direct_insert_row(
    ftree: FTree, roots: list, view: _RowView, splice: _Splice
) -> tuple[list, bool]:
    results = [
        _direct_splice_union(node, union, view, splice)
        for node, union in zip(ftree.roots, roots)
    ]
    changed = [i for i, (_, added, _) in enumerate(results) if added]
    if not changed:
        return roots, False
    _require_rectangular(
        "insert",
        changed,
        results,
        list(zip(ftree.roots, roots)),
    )
    new_roots = [result[0] for result in results]
    return new_roots, True


def _require_rectangular(
    verb: str,
    changed: list[int],
    results: Sequence[tuple],
    siblings: Sequence[tuple[FNode, Any]],
) -> None:
    """Exactness of a one-row change against sibling branches.

    A row change is exact iff exactly one branch changed (exactly) and
    every sibling fragment represents a single tuple — otherwise the
    change cross-multiplies (inserts) or leaves a non-product remainder
    (deletes).
    """
    for index in changed:
        if not results[index][2]:
            raise IndependenceViolation(
                f"{verb} is not exact below node "
                f"{siblings[index][0].label()!r}"
            )
    if len(changed) > 1:
        labels = ", ".join(siblings[i][0].label() for i in changed)
        raise IndependenceViolation(
            f"one-row {verb} touches independent branches ({labels}); "
            "the result is not representable over this f-tree"
        )
    branch = changed[0]
    for index, (node, union) in enumerate(siblings):
        if index != branch and _union_count(node, union) != 1:
            raise IndependenceViolation(
                f"one-row {verb} at branch "
                f"{siblings[branch][0].label()!r} cross-multiplies with "
                f"sibling {node.label()!r} ({_union_count(node, union)} "
                "tuples)"
            )


def _direct_splice_union(
    node: FNode, union, view: _RowView, splice: _Splice
) -> tuple:
    """Returns ``(new_union, added_anything, exact)``."""
    value = view.node_value(node)
    index = _find(union, value)
    if index is None:
        splice.nodes_touched += 1
        subs = tuple(
            _fresh_union(child, view, splice) for child in node.children
        )
        at = bisect_left(union.values, value)
        return _u_insert(union, at, value, subs), True, True
    children = _u_children(union, index)
    results = [
        _direct_splice_union(child, child_union, view, splice)
        for child, child_union in zip(node.children, children)
    ]
    changed = [i for i, (_, added, _) in enumerate(results) if added]
    if not changed:
        return union, False, True
    _require_rectangular(
        "insert", changed, results, list(zip(node.children, children))
    )
    splice.nodes_touched += 1
    new_children = tuple(result[0] for result in results)
    return _u_replace(union, index, value, new_children), True, True


def _fresh_union(node: FNode, view: _RowView, splice: _Splice) -> CUnion:
    """A one-entry union representing exactly the row's subtree projection."""
    splice.nodes_touched += 1
    value = view.node_value(node)
    subs = [_fresh_union(child, view, splice) for child in node.children]
    return singleton_cunion(value, subs)


def direct_delete(
    fact: Factorisation,
    rows: Sequence[Row],
    columns: Sequence[str],
    splice: _Splice,
) -> Factorisation:
    """Remove ``rows`` (over ``columns``) from the represented relation."""
    _check_maintainable(fact)
    positions = _positions(columns)
    schema = fact.schema()
    for name in schema:
        if name not in positions:
            raise DeltaError(
                f"delete rows miss view attribute {name!r} "
                f"(columns: {tuple(columns)!r})"
            )
    roots = list(fact.roots)
    for raw in rows:
        view = _RowView(positions, raw)
        try:
            contained = all(
                _contains(node, union, view)
                for node, union in zip(fact.ftree.roots, roots)
            )
        except _ClassMismatch:
            contained = False  # such a row is never represented
        if not contained:
            continue
        roots = _direct_delete_row(fact.ftree, roots, view, splice)
        splice.removed.append(_reorder(view, schema))
    return Factorisation(fact.ftree, roots)


def _contains(node: FNode, union, view: _RowView) -> bool:
    index = _find(union, view.node_value(node))
    if index is None:
        return False
    children = _u_children(union, index)
    return all(
        _contains(child, child_union, view)
        for child, child_union in zip(node.children, children)
    )


def _direct_delete_row(
    ftree: FTree, roots: list, view: _RowView, splice: _Splice
) -> list:
    items = list(zip(ftree.roots, roots))
    total = 1
    for node, union in items:
        total *= _union_count(node, union)
    if total == 1:
        splice.nodes_touched += len(roots)
        return [empty_cunion(len(union.children)) for union in roots]
    big = [i for i, (node, union) in enumerate(items) if _union_count(node, union) > 1]
    if len(big) != 1:
        raise IndependenceViolation(
            "one-row delete would leave a non-product remainder across "
            "the forest's roots"
        )
    index = big[0]
    node, union = items[index]
    new_roots = list(roots)
    new_roots[index] = _direct_prune_union(node, union, view, splice)
    return new_roots


def _direct_prune_union(
    node: FNode, union, view: _RowView, splice: _Splice
):
    index = _find(union, view.node_value(node))
    assert index is not None  # containment was checked
    value = union.values[index]
    children = _u_children(union, index)
    splice.nodes_touched += 1
    if _parts_count(node, children) == 1:
        return _u_remove(union, index)
    items = list(zip(node.children, children))
    big = [i for i, (child, child_union) in enumerate(items) if _union_count(child, child_union) > 1]
    if len(big) != 1:
        raise IndependenceViolation(
            f"one-row delete below {node.label()!r}={value!r} would "
            "leave a non-product remainder (the remaining combinations "
            "are not representable over this f-tree)"
        )
    branch = big[0]
    child, child_union = items[branch]
    new_child = _direct_prune_union(child, child_union, view, splice)
    new_children = children[:branch] + (new_child,) + children[branch + 1 :]
    return _u_replace(union, index, value, new_children)


# ---------------------------------------------------------------------------
# Routed maintenance: the delta targets a contributing base relation
# ---------------------------------------------------------------------------
@dataclass
class _Route:
    """The resolved path from a view's root to the deepest owned node."""

    root_index: int
    steps: tuple[int, ...]  # child index per descent level
    nodes: tuple[FNode, ...]  # route nodes, root first
    owned: frozenset[int]  # id() of nodes whose keys contain the relation


def _resolve_route(tree: FTree, relation: str, schema: Sequence[str]) -> _Route:
    owned = [node for node in tree.nodes() if relation in node.keys]
    if not owned:
        raise IndependenceViolation(
            f"relation {relation!r} contributes no dependency key"
        )
    for node in owned:
        if node.is_aggregate:
            raise IndependenceViolation(
                f"relation {relation!r} feeds aggregate node {node.label()!r}"
            )
        if not set(node.attributes) & set(schema):
            raise IndependenceViolation(
                f"node {node.label()!r} carries the key of {relation!r} "
                "but none of its attributes"
            )
    held = {a for node in owned for a in node.attributes}
    missing = [a for a in schema if a not in held]
    if missing:
        raise IndependenceViolation(
            f"attributes {missing!r} of {relation!r} are not represented "
            "by the view (projection views need a rebuild)"
        )
    deepest = max(owned, key=tree.depth)
    spine = [deepest] + tree.ancestors(deepest)
    spine_ids = {id(node) for node in spine}
    stray = [node for node in owned if id(node) not in spine_ids]
    if stray:
        raise IndependenceViolation(
            f"nodes owned by {relation!r} do not lie on one path"
        )
    root_index, steps = tree.path_to(deepest.name)
    nodes = [tree.roots[root_index]]
    for step in steps:
        nodes.append(nodes[-1].children[step])
    return _Route(
        root_index, tuple(steps), tuple(nodes), frozenset(id(n) for n in owned)
    )


def routed_insert(
    fact: Factorisation,
    relation: str,
    rows: Sequence[Row],
    columns: Sequence[str],
    database: "Database",
    splice: _Splice,
) -> Factorisation:
    return _routed(fact, relation, rows, columns, database, splice, "insert")


def routed_delete(
    fact: Factorisation,
    relation: str,
    rows: Sequence[Row],
    columns: Sequence[str],
    database: "Database",
    splice: _Splice,
) -> Factorisation:
    return _routed(fact, relation, rows, columns, database, splice, "delete")


def _routed(
    fact: Factorisation,
    relation: str,
    rows: Sequence[Row],
    columns: Sequence[str],
    database: "Database",
    splice: _Splice,
    kind: str,
) -> Factorisation:
    _check_maintainable(fact)
    tree = fact.ftree
    route = _resolve_route(tree, relation, columns)
    positions = _positions(columns)
    roots = list(fact.roots)
    forest = lambda: list(zip(tree.roots, roots))  # noqa: E731
    for raw in rows:
        view = _RowView(positions, raw)
        try:
            union, added, removed = _routed_walk(
                route, 0, route.nodes[0], roots[route.root_index],
                view, {}, database, relation, splice, kind,
            )
        except _ClassMismatch:
            continue  # the row never joins into this view
        if union is None:
            continue  # no-op for this row
        expanded_added = _expand_forest(forest(), route.root_index, added)
        expanded_removed = _expand_forest(forest(), route.root_index, removed)
        roots[route.root_index] = union
        splice.added.extend(expanded_added)
        splice.removed.extend(expanded_removed)
    return Factorisation(tree, roots)


def _routed_walk(
    route: _Route,
    position: int,
    node: FNode,
    union,
    view: _RowView,
    bindings: dict[str, Any],
    database: "Database",
    relation: str,
    splice: _Splice,
    kind: str,
) -> tuple:
    """Apply one row at one route level.

    Returns ``(new_union_or_None, added_rows, removed_rows)`` where the
    rows are over the *subtree schema* of ``node`` and ``None`` means
    "nothing changed here".
    """
    last = position == len(route.nodes) - 1
    if id(node) in route.owned:
        value = view.node_value(node)
        index = _find(union, value)
        if kind == "insert":
            if index is None:
                fresh_bindings = dict(bindings)
                for attribute in node.attributes:
                    if attribute in view:
                        fresh_bindings[attribute] = value
                return _routed_fresh(
                    node, union, fresh_bindings, database, relation, splice
                )
            if last:
                return None, [], []  # row already contributes
            return _routed_descend(
                route, position, node, union, index, view, bindings,
                database, relation, splice, kind,
            )
        # delete
        if index is None:
            return None, [], []  # row never contributed
        if last:
            removed = list(
                _iter_parts(
                    node, union.values[index], _u_children(union, index)
                )
            )
            splice.nodes_touched += 1
            return _u_remove(union, index), [], removed
        return _routed_descend(
            route, position, node, union, index, view, bindings,
            database, relation, splice, kind,
        )
    # Non-owned route node: the change applies below every entry.
    entries: list[tuple] = []
    added: list[Row] = []
    removed: list[Row] = []
    changed = False
    for index in range(len(union.values)):
        result, entry_added, entry_removed = _routed_entry(
            route, position, node, union, index, view, bindings,
            database, relation, splice, kind,
        )
        added.extend(entry_added)
        removed.extend(entry_removed)
        if result is _UNCHANGED:
            entries.append((union.values[index], _u_children(union, index)))
        else:
            changed = True
            if result is not None:
                entries.append(result)
    if not changed:
        return None, added, removed
    return _u_make(entries, len(node.children)), added, removed


_UNCHANGED = object()


def _routed_entry(
    route: _Route,
    position: int,
    node: FNode,
    union,
    index: int,
    view: _RowView,
    bindings: dict[str, Any],
    database: "Database",
    relation: str,
    splice: _Splice,
    kind: str,
):
    """Recurse below one entry; returns ``(_UNCHANGED | (value,
    children) | None, added, removed)`` with rows expanded to this
    node's subtree schema (``None`` means the entry was pruned away)."""
    value = union.values[index]
    children = _u_children(union, index)
    branch = route.steps[position]
    child = node.children[branch]
    entry_bindings = dict(bindings)
    for attribute in node.attributes:
        entry_bindings[attribute] = value
    new_child, child_added, child_removed = _routed_walk(
        route, position + 1, child, children[branch],
        view, entry_bindings, database, relation, splice, kind,
    )
    if new_child is None:
        return _UNCHANGED, [], []
    added = _expand_below(node, value, children, branch, child_added)
    removed = _expand_below(node, value, children, branch, child_removed)
    splice.nodes_touched += 1
    if not new_child.values:
        # ∅ absorption: an empty fragment kills the entry; everything
        # the entry represented is exactly the expanded removal.
        return None, added, removed
    new_children = (
        children[:branch] + (new_child,) + children[branch + 1 :]
    )
    return (value, new_children), added, removed


def _routed_descend(
    route: _Route,
    position: int,
    node: FNode,
    union,
    index: int,
    view: _RowView,
    bindings: dict[str, Any],
    database: "Database",
    relation: str,
    splice: _Splice,
    kind: str,
) -> tuple:
    result, added, removed = _routed_entry(
        route, position, node, union, index, view, bindings,
        database, relation, splice, kind,
    )
    if result is _UNCHANGED:
        return None, added, removed
    if result is None:
        return _u_remove(union, index), added, removed
    value, children = result
    return _u_replace(union, index, value, children), added, removed


def _routed_fresh(
    node: FNode,
    union,
    bindings: dict[str, Any],
    database: "Database",
    relation: str,
    splice: _Splice,
) -> tuple:
    """Insert at an owned node whose value is absent.

    The node's whole subtree fragment is rebuilt from the contributing
    relations restricted to the anchor bindings (which already reflect
    the applied base change), and any entries missing from the current
    union are merged in.  This covers both "first order for an existing
    package" and "new item joining existing packages": the join decides
    which entries belong here.
    """
    fragment = _fragment_union(node, bindings, database, splice)
    added: list[Row] = []
    new_union = union
    changed = False
    for value, children in iter_entries(fragment):
        if _find(new_union, value) is None:
            at = bisect_left(new_union.values, value)
            new_union = _u_insert(new_union, at, value, children)
            added.extend(_iter_parts(node, value, children))
            changed = True
    if not changed:
        return None, [], []
    return new_union, added, []


def _fragment_union(
    node: FNode,
    bindings: dict[str, Any],
    database: "Database",
    splice: _Splice,
) -> CUnion:
    """Build the exact fragment for ``node``'s subtree under ``bindings``.

    Joins every contributing relation of the subtree (restricted to the
    binding values on shared attributes), projects onto the subtree's
    attributes and factorises over the subtree itself.
    """
    keys: set[str] = set()
    for walk_node in node.walk():
        keys |= walk_node.keys
    relations: list[Relation] = []
    for key in sorted(keys):
        if key.startswith("__dep_"):
            continue  # records a dependency, names no relation
        if key not in database:
            raise IndependenceViolation(
                f"cannot build a fresh fragment below {node.label()!r}: "
                f"contributing relation {key!r} is not in the catalogue"
            )
        base = database.flat(key)
        for attribute, value in bindings.items():
            if attribute in base.schema:
                base = base.select_eq(attribute, value)
        relations.append(base)
    joined = multiway_join(relations)
    attributes = sorted(node.subtree_atomic_attributes())
    for attribute in attributes:
        if attribute not in joined.schema:
            raise IndependenceViolation(
                f"contributors of {node.label()!r} do not produce "
                f"attribute {attribute!r}"
            )
    sub = joined.project(attributes)
    if not sub.rows:
        return empty_cunion(len(node.children))
    fragment = factorise(sub, FTree([node]))
    splice.nodes_touched += fragment.size()
    return fragment.roots[0]
