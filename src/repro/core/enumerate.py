"""Enumeration of factorised query results (Section 4).

Every union is kept sorted (Section 4.1), so *ordered* enumeration comes
for free whenever the order-by list is compatible with the f-tree in the
sense of Theorem 2; ``DESC`` reads unions backwards.

Which f-tree node is expanded next depends only on the tree and the
order keys, so the *expansion order* is derived once per call
(:func:`_expansion`); the rows are the nested loops over it.  They are
built a level at a time, never a row at a time: the unions of the next
position below a block of rows are one level — their values,
concatenated, are its column; a parent-index array repeats every other
column once per entry (a slice where each union holds one); the child
columns of the entries are the unions of the positions below; and the
requested columns, zipped, are the rows.  Levels are cut so that no
block exceeds ``_BLOCK_ROWS`` rows: a consumer that stops after ``k``
rows pays for at most one block more, and streaming holds one block
per level.  A position whose unions hold one entry each is expanded as
soon as its parent is, and rows sharing every pending union (an
independent branch) share what is expanded below them, tiled.  An order
one swap away (:func:`on_demand_swap`) is served without the swap: the
key node and its parent are expanded jointly from a heap over the key
node's unions, so an early stop reads only the unions its rows reach.

Public surface:

- :func:`supports_grouping` / :func:`supports_order` — the Theorem 1 and
  Theorem 2 characterisations of f-trees;
- :func:`iter_blocks` / :func:`iter_columns` / :func:`iter_tuples` —
  enumeration in an order satisfying Theorem 2, or one merge away from
  it; :func:`on_demand_swap` / :func:`merge_steps` — which orders the
  merge serves and what it costs;
- :func:`group_expansion` — the order in which a group-by region is
  expanded and the fragments left hanging below it, which the engine
  folds into one aggregate leaf per group before enumerating blocks;
- :func:`restructure_for_order` — the swap sequence of Section 4.2
  that makes an arbitrary f-tree enumerable for a given order.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from heapq import merge
from itertools import accumulate, chain, compress, islice, pairwise, repeat
from math import ceil, log2, prod
from operator import attrgetter, getitem, is_not, itemgetter, neg
from typing import Iterator, Sequence

from repro.core.frep import CUnion, Factorisation
from repro.core.ftree import FNode, FTree
from repro.core.operators import swap
from repro.relational.sort import SortKey, normalise_order

#: Rows a block holds at most.  A block is filled from the innermost
#: unions below one union of the level above them and cut at this many
#: rows, so that memory per block and the work past a LIMIT stay
#: bounded.  An independent branch is kept for reuse only while it fits
#: one block.
_BLOCK_ROWS = 1024

_VALUES = attrgetter("values")
_CHILDREN = attrgetter("children")
_FIRST = itemgetter(0)


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
                current = swap(current, node.name).tree
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


# ---------------------------------------------------------------------------
# The level-at-a-time expander
# ---------------------------------------------------------------------------
@dataclass(slots=True)
class _Plan:
    """How :func:`_walk` expands a forest, one *position* per node of
    the expansion order (the merged pair of an on-demand χ shares one).

    ``kids[t]`` lists ``(x, c)`` per later position ``x`` whose union
    sits in child column ``c`` of position ``t``'s entries (``~c``: of
    the key node's entries, at the merged position); ``roots`` lists
    the root positions, in the order of the forest's roots.  ``slot[t]``
    is where position ``t``'s value sits in the expansion layout (the
    merged position fills two slots: the key node's, then its
    parent's); ``picks`` are the slots of the requested columns, and
    ``wanted`` the set of them.  ``merged`` is ``(t, key node's column
    in the parent's union, the parent's direction)``.
    """

    kids: list[list[tuple[int, int]]]
    roots: list[int]
    slot: list[int]
    descending: list[bool]
    merged: "tuple[int, int, bool] | None"
    picks: list[int]
    wanted: set[int]


def _plan(
    roots: Sequence[FNode],
    sequence: Sequence[FNode],
    descending: list[bool],
    picks: list[int],
    merged: str | None = None,
) -> _Plan:
    """The :class:`_Plan` expanding the forest ``roots`` in the order
    ``sequence``, reading the columns at slots ``picks``.

    ``sequence`` may be the expansion of an f-tree in which ``merged``
    was swapped above its parent (its successor in ``sequence``); the
    pair then shares one position, and every binding is read off the
    stored tree, where that parent still holds the merged node's unions.
    """
    owner = {
        child.name: (node.name, c)
        for root in roots
        for node in root.walk()
        for c, child in enumerate(node.children)
    }
    names = [node.name for node in sequence]
    fused = names.index(merged) if merged is not None else len(names)
    position = {name: j - (j > fused) for j, name in enumerate(names)}
    count = len(names) - (merged is not None)
    kids: list[list[tuple[int, int]]] = [[] for _ in range(count)]
    for name in names:
        if name in owner and name != merged:
            above, c = owner[name]
            kids[position[above]].append((position[name], ~c if above == merged else c))
    pair = None
    if merged is not None:
        # The merged position reads the key node's direction; its
        # parent's goes with the pair.
        pair = (fused, owner[merged][1], descending.pop(fused + 1))
    return _Plan(
        kids,
        [position[node.name] for node in roots],
        [t + (t > fused) for t in range(count)],
        descending,
        pair,
        picks,
        set(picks),
    )


def _walk(plan: _Plan, unions: Sequence) -> Iterator[tuple[int, list[list]]]:
    """``(rows, columns)`` blocks of at most ``_BLOCK_ROWS`` rows of the
    forest whose roots hold ``unions``: the values at ``plan.picks``,
    one list per requested column."""
    roots = {t: [union] for t, union in zip(plan.roots, unions)}
    blocks = _expand(plan, tuple(range(len(plan.kids))), 1, {}, roots, tuple(roots))
    picks = plan.picks
    return ((n, [held[s] for s in picks]) for n, held in blocks)


def _expand(
    plan: _Plan, rest: tuple, n: int, held: dict, pending: dict, fresh=()
) -> Iterator[tuple[int, dict]]:
    """Expand positions ``rest`` below ``n`` rows of the positions before,
    a level at a time (see the module docstring).

    ``held`` maps each requested slot filled so far to its column,
    ``pending`` each position whose parent is expanded to its unions,
    one per row (``fresh``: those that just became pending).  Blocks
    come out as ``(rows, slot -> column)``.
    """
    if fresh:
        rest = _absorb(plan, rest, held, pending, fresh)
    if not rest:
        yield n, held
        return
    t = rest[0]
    if plan.merged is not None and t == plan.merged[0]:
        yield from _expand_merged(plan, rest, held, pending)
        return
    bounds = _runs(pending, n)
    if bounds is not None:
        yield from _expand_runs(plan, rest, held, pending, bounds)
        return
    others = {x: array for x, array in pending.items() if x != t}
    down = plan.descending[t]
    kids = plan.kids[t]
    fresh = tuple(x for x, _ in kids)
    slot = plan.slot[t] if plan.slot[t] in plan.wanted else None
    for lo, unions, lists, sizes in _groups(pending[t], down):
        rows = _parents(sizes, lo)
        if type(rows) is slice:  # one entry per union
            values = list(map(_FIRST, lists))
        else:
            values = list(chain.from_iterable(map(reversed, lists) if down else lists))
        if not values:
            continue
        below = _read(others, rows)
        for x, c in kids:
            cols = map(itemgetter(c), map(_CHILDREN, unions))
            below[x] = list(chain.from_iterable(map(reversed, cols) if down else cols))
        columns = _read(held, rows)
        if slot is not None:
            columns[slot] = values
        yield from _expand(plan, rest[1:], len(values), columns, below, fresh)


def _parents(sizes: list[int], lo: int):
    """The row (``lo`` on) each entry of unions of ``sizes`` entries
    belongs to: a slice when each union holds one entry, else a list."""
    if sizes.count(1) == len(sizes):
        return slice(lo, lo + len(sizes))
    return list(chain.from_iterable(map(repeat, range(lo, lo + len(sizes)), sizes)))


def _runs(pending: dict, n: int) -> "list[int] | None":
    """Bounds of the runs of rows that share every pending union, when
    sharing pays: a run costs a few dozen steps, while each row of it
    after the first repeats at least one step per row below it."""
    if n < 2 or any(array[0] is not array[1] for array in pending.values()):
        return None
    width = prod(len(array[0].values) for array in pending.values())
    if width < 4:
        return None  # too little below a row to share
    starts: set[int] = set()
    for array in pending.values():
        starts.update(compress(range(1, n), map(is_not, array[1:], array[:-1])))
    return [0, *sorted(starts), n] if (n - len(starts)) * width >= 64 * len(starts) else None


def _absorb(plan: _Plan, rest: tuple, held: dict, pending: dict, fresh) -> tuple:
    """Expand the ``fresh`` positions whose unions hold one entry each
    (and so on below them), in place; returns the positions left.

    Such a position does not branch, so expanding it early leaves the
    rows and their order as they are, and it costs one step per row
    here rather than one per row of every position expanded before it.
    """
    merged = plan.merged[0] if plan.merged is not None else -1
    todo = list(fresh)
    done = set()
    while todo:
        x = todo.pop()
        if x == merged or x == next(y for y in rest if y not in done):
            continue  # the next position is expanded next anyway
        unions = pending[x]
        lists = list(map(_VALUES, unions))
        if list(map(len, lists)).count(1) != len(lists):
            continue
        del pending[x]
        done.add(x)
        if plan.slot[x] in plan.wanted:
            held[plan.slot[x]] = list(map(_FIRST, lists))
        for y, c in plan.kids[x]:
            pending[y] = list(map(_FIRST, map(itemgetter(c), map(_CHILDREN, unions))))
            todo.append(y)
    return tuple(x for x in rest if x not in done) if done else rest


def _expand_runs(
    plan: _Plan, rest: tuple, held: dict, pending: dict, bounds: list
) -> Iterator[tuple[int, dict]]:
    """:func:`_expand` for rows that come in runs sharing every pending
    union (an independent branch below an earlier position): per run,
    the rows below are expanded once and combined with each row of the
    run — tiled, while they fit one block, else expanded again per row."""
    for lo, hi in pairwise(bounds):
        shared = {x: [array[lo]] for x, array in pending.items()}
        below = _expand(plan, rest, 1, {}, shared)
        first = next(below, None)
        if first is None:
            continue
        second = next(below, None)
        if second is None:
            m, columns = first
            step = max(1, _BLOCK_ROWS // m)
            for top in range(lo, hi, step):
                end = min(top + step, hi)
                out = {
                    s: list(chain.from_iterable(zip(*[array[top:end]] * m)))
                    if m > 1
                    else array[top:end]
                    for s, array in held.items()
                }
                for s, array in columns.items():
                    out[s] = array * (end - top)
                yield m * (end - top), out
            continue
        for row in range(lo, hi):
            if row > lo:
                below = _expand(plan, rest, 1, {}, shared)
            for m, columns in chain((first, second), below) if row == lo else below:
                yield m, {**_repeat(held, row, m), **columns}


def _groups(unions: list, down: bool) -> Iterator[tuple[int, list, list, list]]:
    """``(first row, unions, their value lists, their sizes)`` per range
    of consecutive rows whose unions hold at most ``_BLOCK_ROWS``
    entries together; a union that alone holds more comes a block of
    entries at a time."""
    lists = list(map(_VALUES, unions))
    sizes = list(map(len, lists))
    if sum(sizes) <= _BLOCK_ROWS:
        yield 0, unions, lists, sizes
        return
    ends = list(accumulate(sizes))
    lo = base = 0
    while lo < len(sizes):
        hi = max(bisect_right(ends, base + _BLOCK_ROWS, lo), lo + 1)
        if sizes[lo] <= _BLOCK_ROWS:
            yield lo, unions[lo:hi], lists[lo:hi], sizes[lo:hi]
        else:
            union, size = unions[lo], sizes[lo]
            starts = range(0, size, _BLOCK_ROWS)
            for a in reversed(starts) if down else starts:
                b = min(a + _BLOCK_ROWS, size)
                window = CUnion(lists[lo][a:b], tuple(col[a:b] for col in union.children))
                yield lo, [window], [window.values], [b - a]
        base = ends[hi - 1]
        lo = hi


def _read(arrays: dict, rows) -> dict:
    """Each list of ``arrays`` read at ``rows`` (see :func:`_parents`)."""
    if type(rows) is slice:
        return {key: array[rows] for key, array in arrays.items()}
    return {key: list(map(array.__getitem__, rows)) for key, array in arrays.items()}


def _repeat(arrays: dict, row: int, times: int) -> dict:
    """Each list of ``arrays`` reduced to its ``row``, ``times`` over."""
    return {key: [array[row]] * times for key, array in arrays.items()}


def _expand_merged(
    plan: _Plan, rest: tuple, held: dict, pending: dict
) -> Iterator[tuple[int, dict]]:
    """:func:`_expand` of the merged position: per row, one heap over
    the key node's unions under the parent's entries yields the (key
    value, parent entry) pairs in key-then-parent order, a block of
    pairs at a time."""
    t, under, down_p = plan.merged
    down = plan.descending[t]
    others = {x: array for x, array in pending.items() if x != t}
    slots = (plan.slot[t], plan.slot[t] + 1)
    fresh = tuple(x for x, _ in plan.kids[t])
    # Heap items are (key value, rank of the parent's entry, key entry):
    # the rank (± the parent's entry) makes every item distinct, so ties
    # on the key come out in the parent's direction and nothing past it
    # is compared.
    sign = 1 if down == down_p else -1
    for row, union in enumerate(pending[t]):
        subs = union.children[under]
        streams = [
            zip(
                reversed(sub.values) if down else sub.values,
                repeat(sign * i),
                reversed(range(len(sub.values))) if down else range(len(sub.values)),
            )
            for i, sub in enumerate(subs)
        ]
        pairs = merge(*streams, reverse=down)
        # Each pair is a heap step and has rows below it: a chunk
        # doubles from a few pairs up to a block, so that a LIMIT
        # met early draws few of them.
        size = 32
        while chunk := list(islice(pairs, size)):
            size = min(2 * size, _BLOCK_ROWS)
            keys, ranks, ats = zip(*chunk)
            entries = list(ranks) if sign == 1 else list(map(neg, ranks))
            m = len(chunk)
            below = _repeat(others, row, m)
            for x, c in plan.kids[t]:
                if c >= 0:
                    below[x] = list(map(union.children[c].__getitem__, entries))
                else:
                    cols = map(itemgetter(~c), map(_CHILDREN, map(subs.__getitem__, entries)))
                    below[x] = list(map(getitem, cols, ats))
            columns = _repeat(held, row, m)
            for s, array in zip(slots, (keys, map(union.values.__getitem__, entries))):
                if s in plan.wanted:
                    columns[s] = list(array)
            yield from _expand(plan, rest[1:], m, columns, below, fresh)


def _rows(block: tuple[int, list[list]]) -> list[tuple]:
    count, columns = block
    return list(zip(*columns)) if columns else [()] * count


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
    sequence, _ = _expansion(swap(ftree, child).tree.roots, keys)
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
    at most one per row, and entries are drawn up to a block at a time."""
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
    return map(_rows, _blocks(fact, order, columns))


def iter_columns(
    fact: Factorisation,
    order: Sequence = (),
    columns: Sequence[str] | None = None,
) -> Iterator[list[list]]:
    """:func:`iter_blocks` a column at a time: per block, one list of
    values per entry of ``columns`` (at least one), in row order."""
    return map(itemgetter(1), _blocks(fact, order, columns))


def _blocks(
    fact: Factorisation, order: Sequence, columns: Sequence[str] | None
) -> Iterator[tuple[int, list[list]]]:
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
        return iter(((1, []),))  # the relation over no attributes: one row
    slot = {
        name: j for j, node in enumerate(sequence) for name in node.all_names
    }
    picks = [slot[name] for name in (fact.schema() if columns is None else columns)]
    descending = _directions(sequence, keys)
    plan = _plan(fact.ftree.roots, sequence, descending, picks, merged)
    return _walk(plan, fact.roots)


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
