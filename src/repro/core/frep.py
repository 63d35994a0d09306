"""Factorised representations over f-trees (Definition 1).

A factorisation over an f-tree is, at each node, a union of singleton
values, each carrying one fragment per child node — i.e. the normal
form ``⋃_a ⟨A:a⟩ × E_child1(a) × ... × E_childk(a)`` with products
across the forest's roots.  Values within every union are kept sorted
ascending (Section 4.1); all operators preserve this invariant, which
is what makes merges linear and ordered enumeration constant-delay.

Two kinds of singleton values occur:

- atomic nodes hold plain values;
- aggregate nodes hold *tuples* of component values aligned with their
  :class:`repro.core.ftree.AggregateAttribute.functions`.

A union is a :class:`CUnion`: one contiguous value array plus, per
f-tree child, a column of sub-unions aligned with it (struct-of-arrays),
so the batch kernels in :mod:`repro.core.kernels` run one Python-level
pass per f-tree *level* (all unions of one node, see
:func:`map_cunion_level`) instead of one per union or per value.
:func:`iter_entries` is the entry-at-a-time view for cold paths.

The container :class:`Factorisation` pairs an f-tree with one union per
root and provides size accounting, flattening, and validation.  The
structures are treated as immutable: operators build new spines and
share unchanged fragments, so registered views can serve many queries.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, chain, compress, pairwise, repeat
from operator import mul
from sys import getsizeof
from typing import Any, Callable, Iterator, Sequence

from repro.core.ftree import FNode, FTree
from repro.relational.relation import Relation


class FactorisationError(ValueError):
    """Raised for malformed factorisations (misalignment, bad order)."""


class CUnion:
    """One union: a sorted value array with aligned child columns.

    ``values`` is the flat, strictly-ascending array of singleton values;
    ``children`` is one column per f-tree child, each a list of
    :class:`CUnion` aligned with ``values`` (``children[c][i]`` is the
    child-``c`` fragment of entry ``i``).  An empty union still carries
    the correct number of (empty) child columns so arity survives edits.

    The class deliberately does **not** implement ``__iter__`` or
    ``__getitem__``: hot paths read the columns, and code that wants one
    entry at a time says so with :func:`iter_entries`.
    """

    __slots__ = ("values", "children")

    def __init__(
        self, values: list, children: Sequence[list["CUnion"]] = ()
    ) -> None:
        self.values = values
        self.children: tuple[list[CUnion], ...] = tuple(children)

    def __len__(self) -> int:
        return len(self.values)

    def __bool__(self) -> bool:
        return bool(self.values)

    def __reduce__(self):
        return (CUnion, (self.values, self.children))

    def __repr__(self) -> str:
        return f"CUnion({len(self.values)} values, {len(self.children)} cols)"


# Fixed per-container sizes used by the arithmetic ``size_info`` walk:
# variable-length containers contribute one pointer slot per element on
# top of their empty-container header.
_PTR = 8
_LIST_BYTES = getsizeof([])
_TUPLE_BYTES = getsizeof(())
_CUNION_BYTES = getsizeof(CUnion([], ()))
#: A union without child columns: its own header, value list and the
#: empty column tuple (plus one pointer per value and per column).
_CUNION_LEAF_BYTES = _CUNION_BYTES + _LIST_BYTES + _TUPLE_BYTES


def empty_cunion(arity: int) -> CUnion:
    """The empty union with ``arity`` child columns."""
    return CUnion([], tuple([] for _ in range(arity)))


def singleton_cunion(value: Any, children: Sequence[CUnion] = ()) -> CUnion:
    """A one-entry union."""
    return CUnion([value], tuple([child] for child in children))


def iter_entries(union: CUnion) -> Iterator[tuple[Any, tuple]]:
    """Yield ``(value, child_fragments)`` per entry of a union.

    The access surface for cold paths (enumeration, expression
    machinery, IVM walks); hot kernels read the columns directly.
    """
    values = union.values
    cols = union.children
    if not cols:
        for value in values:
            yield value, ()
    else:
        for i, value in enumerate(values):
            yield value, tuple(col[i] for col in cols)


def _tuple_count(union: CUnion) -> int:
    """Tuples under ``union`` (a module function: a self-calling closure
    is a reference cycle)."""
    cols = union.children
    if not cols:
        return len(union.values)
    total = 0
    for i in range(len(union.values)):
        entry_total = 1
        for col in cols:
            entry_total *= _tuple_count(col[i])
        total += entry_total
    return total


class Factorisation:
    """A factorised relation: an f-tree plus one :class:`CUnion` per root."""

    __slots__ = ("ftree", "roots", "covered")

    def __init__(
        self, ftree: FTree, roots: Sequence[CUnion], covered: int = 1
    ) -> None:
        if len(ftree.roots) != len(roots):
            raise FactorisationError(
                f"{len(roots)} root fragments for {len(ftree.roots)} f-tree roots"
            )
        self.ftree = ftree
        self.roots: tuple[CUnion, ...] = tuple(roots)
        #: Trace evidence: how many unions the kernel that built this
        #: factorisation ran over (see :func:`map_cunion_level`).
        self.covered = covered

    # ------------------------------------------------------------------
    # Schema
    # ------------------------------------------------------------------
    def schema(self) -> list[str]:
        """Attribute names of the represented relation, in pre-order.

        Aggregate nodes contribute their (single) name; their tuple
        values are kept as one attribute until the engine finalises them.
        """
        return self.ftree.attribute_names()

    # ------------------------------------------------------------------
    # Size accounting (the paper's succinctness measure: #singletons)
    # ------------------------------------------------------------------
    def size(self) -> int:
        """Number of singletons in the representation (shared fragments
        count once per occurrence)."""
        total = 0
        stack = list(self.roots)
        while stack:
            union = stack.pop()
            total += len(union.values)
            for col in union.children:
                stack.extend(col)
        return total

    def size_info(self) -> tuple[int, int]:
        """``(singletons, resident_bytes)`` in one walk.

        ``resident_bytes`` estimates the representation's *container*
        structure (unions, value arrays, child columns) arithmetically
        from container lengths and the fixed per-object sizes — pointer-
        slot counting rather than ``sys.getsizeof`` per container, so
        the walk stays cheap enough for per-step traces.  The singleton
        value objects themselves are excluded.  Fragments shared by
        reference are counted once per occurrence, matching ``size()``.
        """
        # A level at a time: per node only the number of union
        # occurrences and of entries matter.  Shared fragments are one
        # union of their level with a weight (their occurrences), so
        # they are walked once and counted once per occurrence.
        singles = nbytes = 0
        pending: list = [
            (node, [union], None)
            for node, union in zip(self.ftree.roots, self.roots)
        ]
        while pending:
            node, level, weights = pending.pop()
            sizes = [len(union.values) for union in level]
            if weights is None:
                unions, entries = len(level), sum(sizes)
            else:
                unions, entries = sum(weights), sum(map(mul, weights, sizes))
            arity = len(node.children)
            singles += entries
            nbytes += unions * (
                _CUNION_LEAF_BYTES + arity * (_LIST_BYTES + _PTR)
            ) + _PTR * (1 + arity) * entries
            for index, child in enumerate(node.children):
                below = level_column(level, index)
                spread = weights and list(
                    chain.from_iterable(map(repeat, weights, sizes))
                )
                if child.children and len(set(map(id, below))) < len(below):
                    tally: dict[int, int] = {} if spread else Counter(map(id, below))
                    for key, weight in zip(map(id, below), spread or ()):
                        tally[key] = tally.get(key, 0) + weight
                    unique = {id(union): union for union in below}
                    below = list(unique.values())
                    spread = [tally[key] for key in unique]
                pending.append((child, below, spread))
        return singles, nbytes

    def tuple_count(self) -> int:
        """Cardinality of the represented relation |⟦E⟧|.

        Unlike :meth:`size`, this multiplies across products, so it can
        be exponentially larger than the representation.  Aggregate
        singletons count as one tuple each (their relational reading is
        used only by the aggregation algorithms).
        """
        product = 1
        for union in self.roots:
            product *= _tuple_count(union)
        return product

    def is_empty(self) -> bool:
        """Whether the represented relation is empty."""
        return any(not union.values for union in self.roots)

    # ------------------------------------------------------------------
    # Flattening
    # ------------------------------------------------------------------
    def iter_tuples(self) -> Iterator[tuple]:
        """Enumerate the represented tuples, depth-first in pre-order.

        The delay between consecutive tuples is constant in data size
        (Section 4.1).  Pre-order is the expansion order of the schema
        read as an order list, so the block enumerator serves it.
        """
        from repro.core.enumerate import iter_tuples

        return iter_tuples(self, self.schema())

    def to_relation(self, name: str = "") -> Relation:
        """Materialise the represented relation (flat output)."""
        return Relation.adopt(
            self.schema(), list(self.iter_tuples()), name=name or "⟦E⟧"
        )

    # ------------------------------------------------------------------
    # Validation (used by tests and debug paths)
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural alignment and the sortedness invariant."""

        def check_union(node: FNode, union: CUnion) -> None:
            if type(union) is not CUnion:
                raise FactorisationError(
                    f"node {node.label()!r} holds {union!r}, not a CUnion"
                )
            if len(union.children) != len(node.children):
                raise FactorisationError(
                    f"union of node {node.label()!r} has "
                    f"{len(union.children)} child columns for "
                    f"{len(node.children)} f-tree children"
                )
            previous = None
            for value in union.values:
                if previous is not None and not previous < value:
                    raise FactorisationError(
                        f"union of node {node.label()!r} is not strictly "
                        f"ascending: {previous!r} then {value!r}"
                    )
                previous = value
                if node.is_aggregate and not isinstance(value, tuple):
                    raise FactorisationError(
                        f"aggregate node {node.label()!r} holds non-tuple "
                        f"value {value!r}"
                    )
            for child_node, col in zip(node.children, union.children):
                if len(col) != len(union.values):
                    raise FactorisationError(
                        f"child column of node {node.label()!r} has "
                        f"{len(col)} fragments for {len(union.values)} values"
                    )
                for sub in col:
                    check_union(child_node, sub)

        for node, union in zip(self.ftree.roots, self.roots):
            check_union(node, union)

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------
    def pretty(self, limit: int = 40) -> str:
        """Nested rendering like the paper's ⟨value⟩ × (...) ∪ ... form."""
        budget = [limit]

        def render_union(node: FNode, union: CUnion, indent: int) -> list[str]:
            lines: list[str] = []
            cols = union.children
            span = range(len(cols))
            for i, value in enumerate(union.values):
                if budget[0] <= 0:
                    lines.append("  " * indent + "...")
                    break
                budget[0] -= 1
                lines.append("  " * indent + f"⟨{node.label()}:{value!r}⟩")
                for c in span:
                    lines.extend(
                        render_union(node.children[c], cols[c][i], indent + 1)
                    )
            return lines

        lines: list[str] = []
        for node, union in zip(self.ftree.roots, self.roots):
            lines.extend(render_union(node, union, 0))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Factorisation(schema={self.schema()!r}, size={self.size()}, "
            f"tuples={self.tuple_count()})"
        )


def empty_like(ftree: FTree) -> Factorisation:
    """The empty relation over ``ftree`` (∅)."""
    return Factorisation(
        ftree, [empty_cunion(len(node.children)) for node in ftree.roots]
    )


# ---------------------------------------------------------------------------
# Levels: every union at one f-tree position, handled as one batch
# ---------------------------------------------------------------------------
def level_values(unions: Sequence[CUnion]) -> list:
    """The value arrays of a level, concatenated in level order."""
    return list(chain.from_iterable([union.values for union in unions]))


def level_column(unions: Sequence[CUnion], index: int) -> list[CUnion]:
    """Child column ``index`` of a level, concatenated (the next level)."""
    return list(chain.from_iterable([union.children[index] for union in unions]))


def level_bounds(unions: Sequence[CUnion]) -> list[int]:
    """Where each union's segment starts in the level's flat arrays
    (one more bound than unions: the last is the level's length)."""
    return [0, *accumulate([len(union.values) for union in unions])]


def distinct_unions(
    unions: Sequence[CUnion],
) -> "tuple[Sequence[CUnion], list[int] | None]":
    """``(unique, back)``: a level without the repeats of one union
    object, and each position's index into it (``None``: no repeats)."""
    if len(set(map(id, unions))) == len(unions):
        return unions, None
    unique = {id(union): union for union in unions}
    slots = {key: i for i, key in enumerate(unique)}
    return list(unique.values()), [slots[id(union)] for union in unions]


def cut_level(bounds: Sequence[int], values: list, *cols: list) -> list[CUnion]:
    """Flat arrays cut back into one union per consecutive bound pair
    (array by array: one comprehension per column, not one per union)."""
    spans = list(pairwise(bounds))
    cut = [[col[a:b] for a, b in spans] for col in cols]
    return list(
        map(CUnion, [values[a:b] for a, b in spans], zip(*cut) if cut else repeat(()))
    )


def splice_level(
    unions: Sequence[CUnion],
    drop: Sequence[int] = (),
    slot: int = 0,
    columns: Sequence[list] = (),
    live: "Sequence[bool] | None" = None,
) -> Sequence[CUnion]:
    """The level without its child columns ``drop`` and with the flat,
    level-wide ``columns`` cut in at position ``slot`` of what remains.

    ``live`` flags the level's entries (in flat order, as bools); the
    others are pruned from the value array *and every column*, so
    alignment is preserved.  While nothing is pruned the surviving
    columns of each union are its own list objects, and a union (or the
    whole level) that nothing changes is returned by reference.
    """
    if not unions:
        return unions
    rest = [c for c in range(len(unions[0].children)) if c not in drop]
    same = not columns and not drop
    before, after = rest[:slot], rest[slot:]
    bounds = level_bounds(unions)
    if live is None or all(live):
        if same:
            return unions
        spans = list(pairwise(bounds))
        children = zip(
            *[[union.children[c] for union in unions] for c in before],
            *[[col[a:b] for a, b in spans] for col in columns],
            *[[union.children[c] for union in unions] for c in after],
        )
        return list(
            map(
                CUnion,
                [union.values for union in unions],
                children if rest or columns else repeat(()),
            )
        )
    kept = [0, *accumulate(live)]
    cut = [kept[b] for b in bounds]
    flat = [
        list(compress(col, live))
        for col in (
            level_values(unions),
            *[level_column(unions, c) for c in before],
            *columns,
            *[level_column(unions, c) for c in after],
        )
    ]
    if not same:
        return cut_level(cut, *flat)
    # A pure filter shares every union that lost nothing, and one
    # empty union stands in for all that lost everything.
    values, *cols = flat
    empty = empty_cunion(len(cols))
    return [
        union
        if b - a == len(union.values)
        else empty
        if a == b
        else CUnion(values[a:b], tuple([col[a:b] for col in cols]))
        for union, (a, b) in zip(unions, pairwise(cut))
    ]


def map_cunion_level(
    fact: Factorisation,
    root_index: int,
    steps: Sequence[int],
    kernel: Callable[..., Sequence[CUnion]],
    new_ftree: FTree,
    contexts: bool = False,
) -> Factorisation:
    """Rebuild a factorisation with ``kernel`` applied at one position.

    ``steps`` is the child-index path from the root (as produced by
    :meth:`repro.core.ftree.FTree.path_to`).  One descent collects, per
    depth, every union on the way — a *level*: the child columns of the
    level above, concatenated — and the kernel runs once, over all the
    unions at the target position in order.  It returns one union per
    input union, with the child-column arity of the (possibly reshaped)
    target node.  The ancestors are then rebuilt a level at a time:
    each union takes its segment of the new column, entries whose
    fragment became empty are pruned (an empty union kills its parent
    entry, matching ∅ absorption through products), and untouched
    sibling columns are shared by reference.

    A fragment that several parent entries share by identity is one
    union of its level: evaluated once and still shared afterwards.
    With ``contexts``, it is one union per occurrence instead, and the
    kernel also receives, per entry of the level, the values along
    ``steps`` down to it (a tuple, root first, the entry's own last): a
    kernel whose result depends on them rebuilds each occurrence apart.
    """
    node = fact.ftree.roots[root_index]
    levels: list[list[CUnion]] = [[fact.roots[root_index]]]
    shared: list["list[int] | None"] = []
    paths: list[tuple] = [()]

    def deeper(paths: list, unions: list) -> list:
        return [p + (v,) for p, union in zip(paths, unions) for v in union.values]

    for step in steps:
        node = node.children[step]
        below, back = level_column(levels[-1], step), None
        if contexts:
            paths = deeper(paths, levels[-1])
        else:
            below, back = distinct_unions(below)
        shared.append(back)
        levels.append(below)
    target = levels.pop()
    out = kernel(node, target, deeper(paths, target)) if contexts else kernel(node, target)
    for step in reversed(steps):
        back = shared.pop()
        if back is not None:
            out = [out[i] for i in back]
        out = splice_level(
            levels.pop(), (step,), step, (out,),
            [True if union.values else False for union in out],
        )
    new_roots = list(fact.roots)
    new_roots[root_index] = out[0]
    return Factorisation(new_ftree, new_roots, covered=len(target))
