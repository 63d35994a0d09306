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
  columns once per block with :func:`operator.itemgetter`.

Public surface:

- :func:`supports_grouping` / :func:`supports_order` — the Theorem 1 and
  Theorem 2 characterisations of f-trees;
- :func:`iter_blocks` / :func:`iter_tuples` — enumeration in an order
  satisfying Theorem 2 (or no particular order);
- :func:`iter_group_contexts` — row-at-a-time enumeration of group-by
  assignments together with the leftover fragments hanging below each
  group, for evaluators that combine partial aggregates one context at
  a time ("executing partial aggregates on the other attributes on the
  fly", Example 1, case 3); the engine's batch path folds them per
  union first and then enumerates blocks;
- :func:`restructure_for_order` / :func:`restructure_for_grouping` —
  the swap sequences of Section 4.2 that make an arbitrary f-tree
  enumerable for a given order/grouping.
"""

from __future__ import annotations

from itertools import chain, islice, product, repeat
from operator import attrgetter, itemgetter
from typing import Any, Callable, Iterator, Sequence

from repro.core.frep import Factorisation, iter_entries
from repro.core.ftree import FNode, FTree
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
def restructure_for_grouping(ftree: FTree, group: Sequence[str]) -> list[str]:
    """Swap sequence (child names, in order) establishing Theorem 1.

    Pushes every group attribute above all non-group attributes; each
    entry of the returned list is an argument for one swap χ.  The input
    tree is not modified; callers replay the swaps on the factorisation.
    """
    swaps: list[str] = []
    group_set = set(group)
    current = ftree
    changed = True
    while changed:
        changed = False
        for attribute in group:
            node = current.node(attribute)
            parent = current.parent(node)
            if parent is None or (set(parent.all_names) & group_set):
                continue
            from repro.core.operators import swap_tree

            current = swap_tree(current, node.name)
            swaps.append(node.name)
            changed = True
            break
    return swaps


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
        raise EnumerationError(
            f"f-tree does not support constant-delay enumeration in order "
            f"{[str(k) for k in keys]}; restructure first (Theorem 2)"
        )
    return keys


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


def _walk(
    parent: Sequence[int],
    column: Sequence[int],
    unions: list,
    descending: Sequence[bool],
) -> Iterator[list[tuple]]:
    """Blocks of rows in expansion layout: one value per position.

    Positions are expanded in order; ``parent[q]``/``column[q]`` say
    which entry of which earlier position binds ``unions[q]`` (``-1``:
    a root, bound by the caller).
    """
    count = len(parent)
    kids: list[list[tuple[int, int]]] = [[] for _ in range(count)]
    for q, p in enumerate(parent):
        if p >= 0:
            kids[p].append((q, column[q]))
    # The kernel sits at the last position with children in the
    # sequence; everything after it is a leaf.
    inner = max(0, max(parent))
    tail = range(inner + 1, count)
    # tops[j]: the latest position whose entry the suffix from j on
    # depends on.  When that is not the loop right around j, the suffix
    # is the same for every entry of the loops in between: an
    # independent branch, whose rows are kept (see ``keep``) until
    # tops[j] moves to its next entry.
    tops = [
        max(p for q, p in enumerate(parent) if p < j <= q)
        for j in range(inner + 1)
    ]
    hoisted = [j > 0 and tops[j] < j - 1 for j in range(inner + 1)]
    clears = [
        [j for j in range(inner + 1) if hoisted[j] and tops[j] == p]
        for p in range(inner + 1)
    ]
    cache: list = [None] * (inner + 1)

    def kernel(_: int, prefix: tuple) -> Iterator[list[tuple]]:
        return _chunks(kernel_rows(prefix))

    def kernel_rows(prefix: tuple) -> Iterator[tuple]:
        union = unions[inner]
        down = descending[inner]
        heads = reversed(union.values) if down else union.values
        # Per leaf position, the value list to read under each head.
        leaves: list = []
        for q in tail:
            if parent[q] == inner:
                col = union.children[column[q]]
                held = map(_VALUES, reversed(col) if down else col)
            else:
                held = repeat(unions[q].values)
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

    def expand(j: int, prefix: tuple) -> Iterator[list[tuple]]:
        union = unions[j]
        values = union.values
        cols = union.children
        bound = kids[j]
        stale = clears[j]
        indexes = range(len(values))

        def bind(i: int) -> tuple:
            """Enter entry ``i``: its bindings, and its prefix."""
            for q, c in bound:
                unions[q] = cols[c][i]
            for h in stale:
                cache[h] = None
            return prefix + (values[i],)

        entries = map(bind, reversed(indexes) if descending[j] else indexes)
        if j + 1 == inner and not hoisted[inner]:
            # Right above the kernel the rows of successive entries
            # stream into shared blocks: a level of many small innermost
            # unions costs one step per union, not one block (and all a
            # block costs downstream) per union.
            return _chunks(chain.from_iterable(map(kernel_rows, entries)))
        return chain.from_iterable(enter(j + 1, entered) for entered in entries)

    def keep(j: int, prefix: tuple, below) -> Iterator[list[tuple]]:
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
        cache[j] = kept

    def enter(j: int, prefix: tuple) -> Iterator[list[tuple]]:
        below = kernel if j == inner else expand
        if not hoisted[j]:
            return below(j, prefix)
        kept = cache[j]
        if kept is None:
            return keep(j, prefix, below)
        return iter((list(map(prefix.__add__, kept)),) if kept else ())

    return enter(0, ())


def _layout(
    fact: Factorisation, sequence: Sequence[FNode]
) -> tuple[list[int], list[int], list]:
    """Binding tables and root bindings of ``sequence`` for :func:`_walk`."""
    position = {id(node): j for j, node in enumerate(sequence)}
    parent = [-1] * len(sequence)
    column = [0] * len(sequence)
    for j, node in enumerate(sequence):
        for c, child in enumerate(node.children):
            q = position[id(child)]
            parent[q] = j
            column[q] = c
    unions: list = [None] * len(sequence)
    for node, union in zip(fact.ftree.roots, fact.roots):
        unions[position[id(node)]] = union
    return parent, column, unions


def iter_blocks(
    fact: Factorisation,
    order: Sequence = (),
    columns: Sequence[str] | None = None,
) -> Iterator[list[tuple]]:
    """Enumerate ⟦E⟧ as lazily produced blocks (lists) of rows.

    Rows list ``columns`` (default ``fact.schema()``); concatenated, the
    blocks are the rows in ``order`` — which the f-tree must support
    (Theorem 2; use :func:`restructure_for_order` first otherwise) —
    with the tree's own expansion order breaking ties.
    """
    keys = _order_keys(fact.ftree, order)
    sequence, _ = _expansion(fact.ftree.roots, keys)
    if not sequence:
        return iter(([()],))  # the relation over no attributes: one row
    count = len(sequence)
    descending = _directions(sequence, keys)
    blocks = _walk(*_layout(fact, sequence), descending)
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
# Grouped enumeration with leftover fragments
# ---------------------------------------------------------------------------
def iter_group_contexts(
    fact: Factorisation,
    group: Sequence[str],
    order: Sequence = (),
) -> Iterator[tuple[dict[str, Any], list[tuple[FNode, Any]]]]:
    """Enumerate assignments to the group attributes one at a time.

    Yields ``(assignment, leftovers)`` pairs where ``assignment`` maps
    each group attribute to its value and ``leftovers`` is the list of
    fragments (node, union) hanging below the assignment — the partial
    aggregates to combine on the fly.  With an ``order`` list over group
    attributes, assignments come out in that order (Theorem 2).  One
    Python step per group.
    """
    keys = _order_keys(fact.ftree, order, group)
    members = set(group)
    sequence, leftovers = _expansion(fact.ftree.roots, keys, members)
    names = [
        (j, name)
        for j, node in enumerate(sequence)
        for name in node.all_names
        if name in members
    ]
    for values, bound in _iter_contexts(
        fact, sequence, _directions(sequence, keys)
    ):
        yield (
            {name: values[j] for j, name in names},
            [(node, bound[id(node)]) for node in leftovers],
        )


def _iter_contexts(
    fact: Factorisation, sequence: Sequence[FNode], descending: Sequence[bool]
) -> Iterator[tuple[list, dict]]:
    """Row-at-a-time walk of an expansion order.

    Yields, per assignment to ``sequence``, the value of each position
    and the union bound to each node (by ``id``); both are live objects
    the walk keeps updating.
    """
    bound = {id(node): union for node, union in zip(fact.ftree.roots, fact.roots)}
    values: list = [None] * len(sequence)

    def generate(j: int):
        if j == len(sequence):
            yield values, bound
            return
        node = sequence[j]
        entries = iter_entries(bound[id(node)])
        for value, fragments in (
            reversed(list(entries)) if descending[j] else entries
        ):
            values[j] = value
            for child, fragment in zip(node.children, fragments):
                bound[id(child)] = fragment
            yield from generate(j + 1)

    return generate(0)
