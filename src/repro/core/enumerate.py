"""Enumeration of factorised query results (Section 4).

Because every union is kept sorted (Section 4.1), *ordered* enumeration
comes for free whenever the order-by list is compatible with the f-tree
in the sense of Theorem 2, and descending directions are served by
reading unions backwards.

The enumerator works block-wise.  Which f-tree node is expanded next
depends only on the tree and the order keys, so the *expansion order*
is derived once per call (:func:`_expansion`); rows are then produced
with one Python-level step per union rather than per value:

- the last node with children and every leaf after it form the
  *kernel*: one generator expression per union produces its rows
  (``reversed`` serves ``DESC``), drawn a block at a time;
- a suffix of the expansion order that does not depend on the entries
  of the loop around it — an independent sibling branch — is
  enumerated once per context and, when its rows fit one block, kept
  and combined with every later prefix as ``prefix + row`` instead of
  being re-enumerated under every value;
- blocks are yielded lazily and hold at most ``_BLOCK_ROWS`` rows: a
  block is filled from the innermost unions below one union of the
  level above them (many small innermost unions share blocks) and cut
  where that exceeds the limit, so a consumer that stops after ``k``
  rows pays for ``k`` rows plus one block — constant delay, amortised
  per block — and streaming holds one block (and at most one block per
  kept branch) at a time.  With several leaves under one node a step
  first reads the leaf unions of one entry (``itertools.product``);
- rows are built in expansion layout and permuted to the requested
  columns once per block with :func:`operator.itemgetter`;
- an order one swap away (:func:`on_demand_swap`) is served without
  the swap: the key node and its parent are expanded jointly, from a
  heap over the key node's unions under the parent's entries, so a
  consumer that stops early reads only the unions its rows reach.

Public surface:

- :func:`supports_grouping` / :func:`supports_order` — the Theorem 1 and
  Theorem 2 characterisations of f-trees;
- :func:`iter_blocks` / :func:`iter_tuples` — enumeration in an order
  satisfying Theorem 2, or one merge away from it (or no particular
  order); :func:`on_demand_swap` / :func:`merge_steps` — which orders
  the merge serves and what it costs;
- :func:`group_expansion` — the order in which a group-by region is
  expanded and the fragments left hanging below it, which the engine
  folds into one aggregate leaf per group before enumerating blocks;
- :func:`restructure_for_order` — the swap sequence of Section 4.2
  that makes an arbitrary f-tree enumerable for a given order.
"""

from __future__ import annotations

from heapq import merge
from itertools import chain, islice, product, repeat
from math import ceil, log2
from operator import attrgetter, itemgetter
from typing import Callable, Iterator, Sequence

from repro.core.frep import Factorisation
from repro.core.ftree import FNode, FTree
from repro.core.operators import swap_tree
from repro.relational.sort import SortKey, normalise_order

#: Rows a block holds at most.  A block is filled from the innermost
#: unions below one union of the level above them and cut at this many
#: rows, so that memory per block and the work past a LIMIT stay
#: bounded.  An independent branch is kept for reuse only while it fits
#: one block.
_BLOCK_ROWS = 1024

_VALUES = attrgetter("values")


class EnumerationError(ValueError):
    """Raised when enumeration prerequisites (Thm 1/2) are not met."""


# ---------------------------------------------------------------------------
# Characterisations
# ---------------------------------------------------------------------------
def supports_grouping(ftree: FTree, group: Sequence[str]) -> bool:
    """Theorem 1: every group attribute is a root or a child of another.

    Tuples within each group of ⟦E⟧ can be enumerated with constant
    delay iff each attribute of G labels a root node or a node whose
    parent holds another attribute of G.
    """
    group_set = set(group)
    for attribute in group:
        node = ftree.node(attribute)
        parent = ftree.parent(node)
        if parent is None:
            continue
        if not (set(parent.all_names) & group_set):
            return False
    return True


def supports_order(ftree: FTree, order: Sequence) -> bool:
    """Theorem 2: each order attribute is a root or a child of an
    attribute appearing *before* it in the order list."""
    keys = normalise_order(order)
    seen: set[str] = set()
    for key in keys:
        node = ftree.node(key.attribute)
        parent = ftree.parent(node)
        if parent is not None and not (set(parent.all_names) & seen):
            return False
        seen.update(node.all_names)
    return True


# ---------------------------------------------------------------------------
# Restructuring (Section 4.2)
# ---------------------------------------------------------------------------
def restructure_for_order(ftree: FTree, order: Sequence) -> list[str]:
    """Swap sequence establishing Theorem 2 for the given order list."""
    keys = normalise_order(order)
    swaps: list[str] = []
    current = ftree
    changed = True
    while changed:
        changed = False
        seen: set[str] = set()
        for key in keys:
            node = current.node(key.attribute)
            parent = current.parent(node)
            if parent is not None and not (set(parent.all_names) & seen):
                from repro.core.operators import swap_tree

                current = swap_tree(current, node.name)
                swaps.append(node.name)
                changed = True
                break
            seen.update(node.all_names)
    return swaps


# ---------------------------------------------------------------------------
# The static expansion order
# ---------------------------------------------------------------------------
def _order_keys(
    ftree: FTree, order: Sequence, group: Sequence[str] | None = None
) -> list[SortKey]:
    """The normalised order list, checked against Theorems 1-2."""
    keys = normalise_order(order)
    if group is not None:
        if not supports_grouping(ftree, group):
            raise EnumerationError(
                f"f-tree does not support grouping by {sorted(set(group))}; "
                "restructure first (Theorem 1)"
            )
        for key in keys:
            if key.attribute not in group:
                raise EnumerationError(
                    f"order attribute {key.attribute!r} is not in the group"
                )
    if keys and not supports_order(ftree, keys):
        raise _unsupported(keys)
    return keys


def _unsupported(keys: Sequence[SortKey]) -> EnumerationError:
    return EnumerationError(
        f"f-tree does not support constant-delay enumeration in order "
        f"{[str(k) for k in keys]}; restructure first (Theorem 2)"
    )


def _expansion(
    roots: Sequence[FNode],
    keys: Sequence[SortKey],
    group: set[str] | None = None,
) -> tuple[list[FNode], list[FNode]]:
    """``(sequence, leftovers)``: the order in which nodes are expanded.

    Among the pending nodes (the roots; a node's children join at the
    end when it is expanded) the one holding the earliest order key goes
    next, the first pending one when none holds a key.  With ``group``,
    only nodes holding a group attribute are expanded and the rest stay
    pending: they are the leftovers hanging below the group region.
    """
    rank = {key.attribute: index for index, key in enumerate(keys)}
    pending = list(roots)
    sequence: list[FNode] = []
    while True:
        open_ = [
            index
            for index, node in enumerate(pending)
            if group is None or group.intersection(node.all_names)
        ]
        if not open_:
            return sequence, pending
        best = min(
            open_,
            key=lambda index: min(
                rank.get(name, len(rank)) for name in pending[index].all_names
            ),
        )
        node = pending.pop(best)
        sequence.append(node)
        pending.extend(node.children)


def _directions(sequence: Sequence[FNode], keys: Sequence[SortKey]) -> list[bool]:
    down = {key.attribute for key in keys if key.descending}
    return [bool(down.intersection(node.all_names)) for node in sequence]


def _picker(indexes: Sequence[int]) -> Callable[[tuple], tuple]:
    """``row -> tuple(row[i] for i in indexes)`` at C speed where possible."""
    if len(indexes) > 1:
        return itemgetter(*indexes)
    if not indexes:
        return lambda row: ()
    (index,) = indexes
    return lambda row: (row[index],)


# ---------------------------------------------------------------------------
# The block walk
# ---------------------------------------------------------------------------
def _chunks(rows: Iterator[tuple]) -> Iterator[list[tuple]]:
    """``rows`` as lists of at most ``_BLOCK_ROWS``, drawn on demand."""
    return iter(lambda: list(islice(rows, _BLOCK_ROWS)), [])


class _Walk:
    """Blocks of rows in expansion layout: one value per position.

    Positions are expanded in order; ``parent[q]``/``column[q]`` say
    which entry of which earlier position binds ``unions[q]`` (``-1``:
    a root, bound by the caller).

    ``merged`` is ``(m, under, down)`` when position ``m`` expands a
    key node K and its parent P jointly (an on-demand χ, see
    :func:`on_demand_swap`): ``unions[m]`` is P's union, ``under`` K's
    column in it, ``down`` P's direction.  Its entries are the
    (K value, P entry) pairs in K-then-P order, drawn from a heap over
    the K unions of P's entries; each appends both values to the row.
    Positions below it take their union from P's entry (``column[q]``)
    or from K's entry (``~column[q]``).

    The walk is an object rather than a nest of closures so that no
    reference cycle holds the unions: once the consumer drops the
    blocks, reference counting frees what the walk was reading.
    """

    def __init__(
        self,
        parent: Sequence[int],
        column: Sequence[int],
        unions: list,
        descending: Sequence[bool],
        merged: "tuple[int, int, bool] | None" = None,
    ) -> None:
        count = len(parent)
        self.column = column
        self.unions = unions
        self.descending = descending
        self.merged = merged
        self.fused = merged[0] if merged is not None else -1
        self.kids: list[list[tuple[int, int]]] = [[] for _ in range(count)]
        for q, p in enumerate(parent):
            if p >= 0:
                self.kids[p].append((q, column[q]))
        # The kernel sits at the last position with children in the
        # sequence (or the merged one, which is no leaf either);
        # everything after it is a leaf.
        inner = self.inner = max(0, max(parent), self.fused)
        self.tail = range(inner + 1, count)
        self.parent = parent
        # tops[j]: the latest position whose entry the suffix from j on
        # depends on.  When that is not the loop right around j, the
        # suffix is the same for every entry of the loops in between: an
        # independent branch, whose rows are kept (see ``keep``) until
        # tops[j] moves to its next entry.
        tops = [
            max(p for q, p in enumerate(parent) if p < j <= q)
            for j in range(inner + 1)
        ]
        self.hoisted = [j > 0 and tops[j] < j - 1 for j in range(inner + 1)]
        self.clears = [
            [j for j in range(inner + 1) if self.hoisted[j] and tops[j] == p]
            for p in range(inner + 1)
        ]
        self.cache: list = [None] * (inner + 1)

    def blocks(self) -> Iterator[list[tuple]]:
        return self.enter(0, ())

    def kernel(self, _: int, prefix: tuple) -> Iterator[list[tuple]]:
        return _chunks(self.kernel_rows(prefix))

    def kernel_rows(self, prefix: tuple) -> Iterator[tuple]:
        inner = self.inner
        parent, column, descending = self.parent, self.column, self.descending
        union = self.unions[inner]
        down = descending[inner]
        heads = reversed(union.values) if down else union.values
        # Per leaf position, the value list to read under each head.
        leaves: list = []
        for q in self.tail:
            if parent[q] == inner:
                col = union.children[column[q]]
                held = map(_VALUES, reversed(col) if down else col)
            else:
                held = repeat(self.unions[q].values)
            leaves.append(map(reversed, held) if descending[q] else held)
        if not leaves:
            rows = (prefix + (x,) for x in heads)
        elif len(leaves) == 1:
            rows = (prefix + (x, y) for x, ys in zip(heads, leaves[0]) for y in ys)
        else:
            rows = (
                prefix + (x,) + rest
                for x, rests in zip(heads, map(product, *leaves))
                for rest in rests
            )
        return rows

    def leaf_rows(self, prefix: tuple) -> Iterator[tuple]:
        """The rows of the leaves after a merged position that is the
        last one with children: their product under ``prefix``."""
        unions, descending = self.unions, self.descending
        leaves = [
            reversed(unions[q].values) if descending[q] else unions[q].values
            for q in self.tail
        ]
        return map(prefix.__add__, product(*leaves))

    def entries(self, j: int, prefix: tuple) -> Iterator[tuple]:
        """Enter each entry of position ``j`` in turn: bind the unions
        below it and yield its prefix."""
        unions, cache = self.unions, self.cache
        union = unions[j]
        values = union.values
        cols = union.children
        bound = self.kids[j]
        stale = self.clears[j]

        def bind(i: int) -> tuple:
            for q, c in bound:
                unions[q] = cols[c][i]
            for h in stale:
                cache[h] = None
            return prefix + (values[i],)

        indexes = range(len(values))
        return map(bind, reversed(indexes) if self.descending[j] else indexes)

    def merged_entries(self, j: int, prefix: tuple) -> Iterator[tuple]:
        """:meth:`entries` of the merged position: one heap over the K
        unions of P's entries yields the pairs in K-then-P order."""
        unions, cache = self.unions, self.cache
        _, under, down_p = self.merged
        union = unions[j]
        values = union.values
        cols = union.children
        subs = cols[under]
        down = self.descending[j]
        from_p = [(q, c) for q, c in self.kids[j] if c >= 0]
        from_k = [(q, ~c) for q, c in self.kids[j] if c < 0]
        stale = self.clears[j]
        # Heap items are (K value, rank of P's entry, K's entry): the
        # rank (± P's entry) makes every item distinct, so ties on the K
        # value come out in P's direction and nothing past it is compared.
        sign = 1 if down == down_p else -1
        streams = [
            zip(
                reversed(sub.values) if down else sub.values,
                repeat(sign * i),
                reversed(range(len(sub.values))) if down else range(len(sub.values)),
            )
            for i, sub in enumerate(subs)
        ]

        def bind(item: tuple) -> tuple:
            value, rank, at = item
            i = sign * rank
            below = subs[i].children
            for q, c in from_p:
                unions[q] = cols[c][i]
            for q, c in from_k:
                unions[q] = below[c][at]
            for h in stale:
                cache[h] = None
            return prefix + (value, values[i])

        return map(bind, merge(*streams, reverse=down))

    def expand(self, j: int, prefix: tuple) -> Iterator[list[tuple]]:
        if j == self.fused:
            entries = self.merged_entries(j, prefix)
            if j == self.inner:
                return _chunks(chain.from_iterable(map(self.leaf_rows, entries)))
        else:
            entries = self.entries(j, prefix)
        inner = self.inner
        if j + 1 == inner != self.fused and not self.hoisted[inner]:
            # Right above the kernel the rows of successive entries
            # stream into shared blocks: a level of many small innermost
            # unions costs one step per union, not one block (and all a
            # block costs downstream) per union.
            return _chunks(chain.from_iterable(map(self.kernel_rows, entries)))
        enter = self.enter
        return chain.from_iterable(enter(j + 1, entered) for entered in entries)

    def keep(self, j: int, prefix: tuple, below) -> Iterator[list[tuple]]:
        # Stream the branch under its first prefix, keeping its rows for
        # the prefixes to come while they fit one block; a larger branch
        # is enumerated again under each prefix, in constant memory.
        kept: list | None = []
        for block in below(j, ()):
            if kept is not None:
                kept += block
                if len(kept) > _BLOCK_ROWS:
                    kept = None
            yield list(map(prefix.__add__, block))
        self.cache[j] = kept

    def enter(self, j: int, prefix: tuple) -> Iterator[list[tuple]]:
        below = self.kernel if j == self.inner != self.fused else self.expand
        if not self.hoisted[j]:
            return below(j, prefix)
        kept = self.cache[j]
        if kept is None:
            return self.keep(j, prefix, below)
        return iter((list(map(prefix.__add__, kept)),) if kept else ())


def _layout(
    fact: Factorisation, sequence: Sequence[FNode], merged: str | None = None
) -> tuple[list[int], list[int], list, "tuple[int, int] | None"]:
    """Binding tables and root bindings of ``sequence`` for :class:`_Walk`.

    ``sequence`` may be the expansion of an f-tree in which ``merged``
    was swapped above its parent (its successor in ``sequence``); the
    pair then shares one position, and every binding is read off the
    stored tree, where that parent still holds the merged node's unions.
    The last item is then (that position, the merged node's column
    under its parent).
    """
    owner = {
        child.name: (node.name, c)
        for node in fact.ftree.nodes()
        for c, child in enumerate(node.children)
    }
    names = [node.name for node in sequence]
    fused = names.index(merged) if merged is not None else len(names)
    position = {name: j - (j > fused) for j, name in enumerate(names)}
    count = len(names) - (merged is not None)
    parent = [-1] * count
    column = [0] * count
    for name in names:
        if name in owner and name != merged:
            above, c = owner[name]
            parent[position[name]] = position[above]
            column[position[name]] = ~c if above == merged else c
    unions: list = [None] * count
    for node, union in zip(fact.ftree.roots, fact.roots):
        unions[position[node.name]] = union
    pair = (fused, owner[merged][1]) if merged is not None else None
    return parent, column, unions, pair


def _merge_plan(
    ftree: FTree, keys: Sequence[SortKey]
) -> "tuple[str, list[FNode]] | None":
    """``(key node, expansion order)`` of an on-demand χ for ``keys``.

    Applies when one swap establishes Theorem 2 and the node it lifts
    is expanded right before its old parent in the swapped tree — then
    the pair can be expanded jointly from the stored tree.
    """
    swaps = restructure_for_order(ftree, keys)
    if len(swaps) != 1:
        return None
    (child,) = swaps
    sequence, _ = _expansion(swap_tree(ftree, child).roots, keys)
    at = next(j for j, node in enumerate(sequence) if node.name == child)
    top = ftree.parent(ftree.node(child)).name
    if at + 1 == len(sequence) or sequence[at + 1].name != top:
        return None
    return child, sequence


def on_demand_swap(ftree: FTree, order: Sequence) -> str | None:
    """The node whose χ :func:`iter_blocks` performs on demand for
    ``order``, or ``None`` when the tree supports the order already or
    needs more than that one merge.

    A key node one level below a parent that is expanded after it
    (and no other restructuring) is the case of a k-way merge: the
    swapped union is the merge of the key node's unions under the
    parent's entries, which a heap yields lazily in order.
    """
    keys = normalise_order(order)
    if not keys or supports_order(ftree, keys):
        return None
    plan = _merge_plan(ftree, keys)
    return plan[0] if plan is not None else None


def merge_steps(fanout: float, limit: int) -> int:
    """Heap steps of an on-demand χ over ``fanout`` unions for the first
    ``limit`` rows: building the heap, then one sift per entry drawn —
    at most one per row, and rows are drawn a whole block at a time."""
    depth = max(1, ceil(log2(max(fanout, 1.0))))
    return ceil(fanout + max(limit, _BLOCK_ROWS)) * depth


def iter_blocks(
    fact: Factorisation,
    order: Sequence = (),
    columns: Sequence[str] | None = None,
) -> Iterator[list[tuple]]:
    """Enumerate ⟦E⟧ as lazily produced blocks (lists) of rows.

    Rows list ``columns`` (default ``fact.schema()``); concatenated, the
    blocks are the rows in ``order`` — which the f-tree must support
    (Theorem 2; use :func:`restructure_for_order` first otherwise) —
    with the tree's own expansion order breaking ties.  An order one
    swap away (:func:`on_demand_swap`) is served by merging that swap's
    unions as the rows are drawn: the rows and their order are those
    of the swapped factorisation, but only the unions the rows drawn
    reach are read.
    """
    keys = normalise_order(order)
    merged = None
    if keys and not supports_order(fact.ftree, keys):
        plan = _merge_plan(fact.ftree, keys)
        if plan is None:
            raise _unsupported(keys)
        merged, sequence = plan
    else:
        sequence, _ = _expansion(fact.ftree.roots, keys)
    if not sequence:
        return iter(([()],))  # the relation over no attributes: one row
    count = len(sequence)
    descending = _directions(sequence, keys)
    parent, column, unions, pair = _layout(fact, sequence, merged)
    if pair is not None:
        # The merged pair's position reads the key node's direction;
        # its parent's goes with the pair.
        pair = (*pair, descending.pop(pair[0] + 1))
    blocks = _Walk(parent, column, unions, descending, pair).blocks()
    slot = {
        name: j for j, node in enumerate(sequence) for name in node.all_names
    }
    picks = [slot[name] for name in (fact.schema() if columns is None else columns)]
    if picks == list(range(count)):
        return blocks
    pick = _picker(picks)
    return (list(map(pick, block)) for block in blocks)


def iter_tuples(
    fact: Factorisation,
    order: Sequence = (),
    limit: int | None = None,
) -> Iterator[tuple]:
    """Enumerate ⟦E⟧, optionally ordered (Theorem 2) and limited (λ_k).

    The output schema is ``fact.schema()``.  Rows stream out of
    :func:`iter_blocks`; a limit stops within one block of ``limit``.
    """
    return islice(chain.from_iterable(iter_blocks(fact, order)), limit)


# ---------------------------------------------------------------------------
# The group region
# ---------------------------------------------------------------------------
def group_expansion(
    ftree: FTree, group: Sequence[str], order: Sequence = ()
) -> tuple[list[FNode], list[FNode]]:
    """``(sequence, leftovers)``: the group region's nodes in the order
    enumeration expands them (Theorem 1; ``order`` lists group
    attributes, Theorem 2), and the fragments hanging below it — the
    partial aggregates one γ folds per group ("executing partial
    aggregates on the other attributes on the fly", Example 1, case 3).
    """
    return _expansion(ftree.roots, _order_keys(ftree, order, group), set(group))
