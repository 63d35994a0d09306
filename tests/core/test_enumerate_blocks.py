"""The block enumerator against the row-at-a-time generators it replaced.

The pre-change generators are kept here as the reference
implementation: every comparison is position by position (row order,
ties included), never multiset.
"""

from __future__ import annotations

import random
from itertools import chain, groupby, islice
from typing import Any, Iterator, Sequence

import pytest

from repro import connect
from repro.core import enumerate as enum
from repro.core import operators as ops
from repro.core.engine import FDBEngine, build_inputs
from repro.core.enumerate import (
    iter_blocks,
    iter_tuples,
    supports_grouping,
    supports_order,
)
from repro.core.fplan import ExecutionTrace, FPlan, SelectStep
from repro.core.frep import CUnion, Factorisation
from repro.core.ftree import FNode, FTree
from repro.core.output import finalised_result, flat_aggregate_output
from repro.data.workloads import FULL_WORKLOAD, build_workload_database
from repro.database import Database
from repro.query import Query, aggregate, target_attributes
from repro.relational.relation import Relation
from repro.relational.sort import normalise_order
from repro.sql import parse_query

from tests.core import reference_aggregates as ref
from tests.core.reference_aggregates import expand_functions


# ---------------------------------------------------------------------------
# Reference: the generators as they were before the block enumerator
# ---------------------------------------------------------------------------
def _ref_entries(union, descending: bool) -> Iterator[tuple[Any, tuple]]:
    if type(union) is CUnion:
        values = union.values
        cols = union.children
        indices = (
            range(len(values) - 1, -1, -1) if descending else range(len(values))
        )
        for i in indices:
            yield values[i], tuple(col[i] for col in cols)
    else:
        for entry in reversed(union) if descending else union:
            yield entry.value, entry.children


def _ref_pick_next(items, priority: dict[str, int]) -> int:
    best = None
    best_rank = None
    for index, (node, _) in enumerate(items):
        ranks = [priority[name] for name in node.all_names if name in priority]
        if ranks:
            rank = min(ranks)
            if best_rank is None or rank < best_rank:
                best, best_rank = index, rank
    return best if best is not None else 0


def ref_iter_tuples(
    fact: Factorisation, order: Sequence = (), limit: int | None = None
) -> Iterator[tuple]:
    keys = normalise_order(order)
    schema = fact.schema()
    positions = {name: index for index, name in enumerate(schema)}
    row: list[Any] = [None] * len(schema)
    direction = {key.attribute: key.descending for key in keys}
    priority = {key.attribute: rank for rank, key in enumerate(keys)}

    def generate(items) -> Iterator[tuple]:
        if not items:
            yield tuple(row)
            return
        index = _ref_pick_next(items, priority)
        node, union = items[index]
        rest = items[:index] + items[index + 1 :]
        slots = [positions[name] for name in node.all_names]
        descending = any(direction.get(name, False) for name in node.all_names)
        for value, entry_children in _ref_entries(union, descending):
            for slot in slots:
                row[slot] = value
            yield from generate(rest + list(zip(node.children, entry_children)))

    iterator = generate(list(zip(fact.ftree.roots, fact.roots)))
    return iterator if limit is None else islice(iterator, limit)


def ref_iter_group_contexts(fact: Factorisation, group, order=()):
    group_set = set(group)
    keys = normalise_order(order)
    direction = {key.attribute: key.descending for key in keys}
    priority = {key.attribute: rank for rank, key in enumerate(keys)}
    assignment: dict[str, Any] = {}

    def generate(items):
        group_items = [
            index
            for index, (node, _) in enumerate(items)
            if set(node.all_names) & group_set
        ]
        if not group_items:
            yield dict(assignment), list(items)
            return
        index = group_items[
            _ref_pick_next([items[i] for i in group_items], priority)
        ]
        node, union = items[index]
        rest = items[:index] + items[index + 1 :]
        descending = any(direction.get(name, False) for name in node.all_names)
        for value, entry_children in _ref_entries(union, descending):
            for name in node.all_names:
                if name in group_set:
                    assignment[name] = value
            yield from generate(rest + list(zip(node.children, entry_children)))

    yield from generate(list(zip(fact.ftree.roots, fact.roots)))


def ref_flat_aggregate_rows(query, fact: Factorisation) -> list[tuple]:
    """``repro.core.output.flat_aggregate_output`` as it was: one evaluator
    call per group context."""
    functions = list(expand_functions(query.aggregates))
    schema = query.output_schema

    def spec_value(spec, components):
        if spec.function == "avg":
            total = components[functions.index(("sum", spec.attribute))]
            count = components[functions.index(("count", None))]
            return total / count if count else None
        if spec.function == "count":
            return components[functions.index(("count", None))]
        return components[functions.index((spec.function, spec.attribute))]

    def passes(row) -> bool:
        lookup = dict(zip(schema, row))
        return all(
            lookup[h.target] is not None and h.test(lookup[h.target])
            for h in query.having
        )

    rows: list[tuple] = []
    items = list(zip(fact.ftree.roots, fact.roots))
    if not query.group_by and ref.forest_is_empty(items):
        rows = [ref.empty_aggregate_row(query.aggregates)]
        rows = [row for row in rows if passes(row)]
    else:
        order = [k for k in query.order_by if k.attribute in query.group_by]
        evaluator = ref.CachedEvaluator()
        sources = {
            attr
            for _, target in functions
            for attr in target_attributes(target)
            if attr in query.group_by
        }
        for assignment, leftovers in ref_iter_group_contexts(
            fact, query.group_by, order
        ):
            if ref.forest_is_empty(leftovers):
                continue
            if sources:
                forest = leftovers + ref.group_value_fragments(sources, assignment)
                components = ref.evaluate_components(functions, forest)
            else:
                components = evaluator.components(functions, leftovers)
            row = tuple(assignment[g] for g in query.group_by) + tuple(
                spec_value(spec, components) for spec in query.aggregates
            )
            if passes(row):
                rows.append(row)
    return rows if query.limit is None else rows[: query.limit]


# ---------------------------------------------------------------------------
# Random f-trees and random data
# ---------------------------------------------------------------------------
SHAPES = [
    # (label, children) specs; labels with two names are merged classes.
    [("a", [("b", []), ("c", [])])],  # two independent branches
    [("a", [("b", [("d", [])]), ("c", [("e", [])])])],  # two deep branches
    [("a", [("b", []), ("c", [("e", [])]), ("d", [])])],  # three branches
    [("a", [("b", [("c", [("d", [])])])])],  # a path
    [(("a", "x"), [("b", [(("c", "y"), [])]), ("d", [])])],  # classes
    [("a", [("b", [])]), ("c", [("d", [])])],  # a forest of two trees
    [("a", []), ("b", []), ("c", [])],  # three leaf roots
]


def _make_tree(spec) -> FTree:
    def make(entry) -> FNode:
        label, children = entry
        names = (label,) if isinstance(label, str) else label
        return FNode(names, [make(child) for child in children], {"*"})

    return FTree([make(entry) for entry in spec])


#: Union sizes drawn for roots and for the unions below them.
NARROW = ([1, 1, 2, 3, 5], [0, 1, 1, 2, 3, 4])
WIDE_SIZES = ([6, 12, 20], [0, 2, 3, 5, 8])


def _random_union(
    rng: random.Random, node: FNode, pool: dict, root=False, sizes=NARROW
) -> CUnion:
    """A sorted union below ``node``: sometimes empty, often one entry,
    sometimes a fragment already used elsewhere (shared by reference)."""
    shared = pool.setdefault(id(node), [])
    if shared and not root and rng.random() < 0.3:
        return rng.choice(shared)
    size = rng.choice(sizes[0] if root else sizes[1])
    values = sorted(rng.sample(range(40), size))
    union = CUnion(
        values,
        tuple(
            [_random_union(rng, child, pool, sizes=sizes) for _ in values]
            for child in node.children
        ),
    )
    shared.append(union)
    return union


def random_fact(rng: random.Random, sizes=NARROW) -> Factorisation:
    tree = _make_tree(rng.choice(SHAPES))
    pool: dict = {}
    return Factorisation(
        tree,
        [_random_union(rng, root, pool, True, sizes) for root in tree.roots],
    )


def random_order(rng: random.Random, tree: FTree) -> list[tuple[str, str]]:
    """A random order list the tree supports (Theorem 2), mixed directions."""
    available = list(tree.roots)
    order = []
    for _ in range(rng.randrange(0, 6)):
        if not available:
            break
        node = available.pop(rng.randrange(len(available)))
        available.extend(node.children)
        order.append((rng.choice(node.all_names), rng.choice(["asc", "desc"])))
    assert supports_order(tree, order)
    return order


def random_merge_order(rng: random.Random, tree: FTree) -> "list | None":
    """A random order one swap away from ``tree`` that the enumerator
    merges on demand (``None`` if the tries find none)."""
    inner = [node for node in tree.nodes() if tree.parent(node) is not None]
    for _ in range(20):
        if not inner:
            return None
        swapped = ops.swap(tree, rng.choice(inner).name).tree
        order = random_order(rng, swapped)
        if enum.on_demand_swap(tree, order) is not None:
            return order
    return None


def random_group(rng: random.Random, tree: FTree) -> list[str]:
    """A random upward-closed group region (Theorem 1), one name per node."""
    available = list(tree.roots)
    group = []
    for _ in range(rng.randrange(0, 5)):
        if not available:
            break
        node = available.pop(rng.randrange(len(available)))
        available.extend(node.children)
        group.append(rng.choice(node.all_names))
    rng.shuffle(group)
    assert supports_grouping(tree, group)
    return group


# ---------------------------------------------------------------------------
# Rows and row order
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(60))
def test_blocks_match_reference_position_by_position(seed):
    rng = random.Random(seed)
    for _ in range(6):
        fact = random_fact(rng)
        order = random_order(rng, fact.ftree)
        expected = list(ref_iter_tuples(fact, order))
        blocks = list(iter_blocks(fact, order))
        assert all(blocks), "empty blocks are not yielded"
        assert [row for block in blocks for row in block] == expected
        first = len(blocks[0]) if blocks else 1
        for limit in (0, 1, first - 1, first, first + 1, len(expected) + 3):
            if limit >= 0:
                assert list(iter_tuples(fact, order, limit)) == expected[:limit]


@pytest.mark.parametrize("seed", range(20))
def test_column_selection_and_preorder(seed):
    rng = random.Random(1000 + seed)
    fact = random_fact(rng)
    schema = fact.schema()
    columns = rng.sample(schema, rng.randrange(1, len(schema) + 1))
    picks = [schema.index(name) for name in columns]
    order = random_order(rng, fact.ftree)
    expected = [
        tuple(row[p] for p in picks) for row in ref_iter_tuples(fact, order)
    ]
    got = [row for block in iter_blocks(fact, order, columns) for row in block]
    assert got == expected
    # Flattening is depth-first in pre-order.
    assert list(fact.iter_tuples()) == list(ref_iter_tuples(fact, schema))


def _same_as_oracle(got, want, keys, limited) -> bool:
    """The benchmark oracle's rule: sort keys position by position, rows
    tying on them as multisets, a tie group cut by LIMIT on its keys."""
    (got_schema, got_rows), (schema, want_rows) = got, want
    columns = [got_schema.index(name) for name in schema]
    got_rows = [tuple(row[c] for c in columns) for row in got_rows]
    positions = [schema.index(name) for name in keys]

    def key(row):
        return tuple(row[p] for p in positions)

    if [key(row) for row in got_rows] != [key(row) for row in want_rows]:
        return False
    got_groups = [sorted(g) for _, g in groupby(got_rows, key)]
    want_groups = [sorted(g) for _, g in groupby(want_rows, key)]
    if limited:
        got_groups, want_groups = got_groups[:-1], want_groups[:-1]
    return got_groups == want_groups


@pytest.mark.parametrize("seed", range(40))
def test_on_demand_swap_matches_swap_then_enumerate(seed):
    """An order one swap away: the merge yields the swapped
    factorisation's rows, position by position, under every LIMIT."""
    rng = random.Random(7000 + seed)
    checked = 0
    for _ in range(8):
        fact = random_fact(rng, rng.choice([NARROW, WIDE_SIZES]))
        order = random_merge_order(rng, fact.ftree)
        if order is None:
            continue
        child = enum.on_demand_swap(fact.ftree, order)
        swapped = ops.swap(fact.ftree, child).run(fact)
        assert not supports_order(fact.ftree, order)
        expected = list(iter_tuples(swapped, order))
        columns = swapped.schema()
        got = list(chain.from_iterable(iter_blocks(fact, order, columns)))
        assert got == expected
        for limit in (0, 1, 7, 1024, 1025, len(expected) + 3):
            rows = chain.from_iterable(iter_blocks(fact, order, columns))
            assert list(islice(rows, limit)) == expected[:limit]
        checked += 1
    assert checked


@pytest.mark.parametrize("seed", range(12))
def test_on_demand_swap_agrees_with_sqlite(seed):
    rng = random.Random(9000 + seed)
    fact = random_fact(rng, WIDE_SIZES)
    order = random_merge_order(rng, fact.ftree)
    while order is None:
        fact = random_fact(rng, WIDE_SIZES)
        order = random_merge_order(rng, fact.ftree)
    keys = normalise_order(order)
    database = Database()
    database.add_factorised("T", fact)
    clause = ", ".join(
        f"{key.attribute} {'DESC' if key.descending else 'ASC'}" for key in keys
    )
    columns = fact.schema()
    with connect(database, engine="sqlite", cache=False) as oracle:
        for limit in (1, 7, 1024, 1025, None):
            sql = f"SELECT * FROM T ORDER BY {clause}" + (
                "" if limit is None else f" LIMIT {limit}"
            )
            want = oracle.sql(sql)
            got = list(islice(chain.from_iterable(iter_blocks(fact, order, columns)), limit))
            assert _same_as_oracle(
                (columns, got),
                (want.schema, want.rows),
                [key.attribute for key in keys],
                limit is not None,
            )


@pytest.mark.parametrize("limit", [1, 10, 1000, 5000])
def test_on_demand_swap_touches_at_most_one_block_more(produced, limit):
    """The merge reads the rows it returns plus at most one block: a
    LIMIT over 250 000 rows neither swaps nor enumerates them all."""
    fact = _wide_fact()
    order = ["b", ("a", "desc"), "c"]
    assert enum.on_demand_swap(fact.ftree, order) == "b"
    expected = list(iter_tuples(ops.swap(fact.ftree, "b").run(fact), order, limit))
    produced["rows"] = produced["largest"] = 0
    rows = list(iter_tuples(fact, order, limit))
    assert rows == [(row[1], row[0], row[2]) for row in expected]
    assert produced["largest"] <= enum._BLOCK_ROWS
    assert produced["rows"] < limit + enum._BLOCK_ROWS


def test_orders_beyond_one_merge_are_not_merged():
    fact = _wide_fact()
    assert enum.on_demand_swap(fact.ftree, ["a", "b"]) is None  # supported
    assert enum.on_demand_swap(fact.ftree, ["c", "b"]) is None  # two swaps
    path = _make_tree([("a", [("b", [("c", [])])])])
    assert enum.on_demand_swap(path, ["c"]) is None  # two levels below a
    assert enum.on_demand_swap(path, ["a", "c", "b"]) == "c"


@pytest.fixture(scope="module")
def q12_database():
    return build_workload_database(scale=0.25, seed=7)


def test_q12_session_chooses_on_demand_only_when_the_limit_is_small(q12_database):
    """Three LIMITs of one shape through one plan cache: the merge where
    the limit is small against the swap's estimate, the eager swap where
    it is not and where there is no LIMIT — the same answer as sqlite
    every time."""
    shape = "SELECT * FROM R2 ORDER BY date, package, item"
    keys = ["date", "package", "item"]
    with connect(q12_database) as session, connect(
        q12_database, engine="sqlite", cache=False
    ) as oracle:
        for suffix, on_demand in (
            (" LIMIT 10", True),
            (" LIMIT 100000", False),
            ("", False),
        ):
            sql = shape + suffix
            for _ in range(2):  # computed, then from the result cache
                result = session.sql(sql)
                want = oracle.sql(sql)
                assert _same_as_oracle(
                    (result.schema, result.rows),
                    (want.schema, want.rows),
                    keys,
                    bool(suffix),
                )
                assert ("χ↑date" not in result.trace.steps) is on_demand
                assert result.trace.enumeration.startswith(
                    "χ↑date on demand" if on_demand else "χ↑date eager"
                )
            assert ("on demand (merge of" in result.explain()) is on_demand
        assert session.caches.plans.stats.misses == 3


def test_unsupported_order_is_rejected():
    # Two swaps away: more than the enumerator merges on demand.
    with pytest.raises(enum.EnumerationError):
        iter_blocks(_wide_fact(), ["c", "b"])


@pytest.mark.parametrize("seed", range(60))
def test_group_output_matches_reference_contexts(seed):
    """count(*) and a sum per group through the one γ — where the
    partials hang below several branches of the group region, after
    nesting the region into one path — against one evaluator call per
    context, position by position."""
    rng = random.Random(5000 + seed)
    for _ in range(6):
        fact = random_fact(rng)
        group = random_group(rng, fact.ftree)
        order = [
            (name, rng.choice(["asc", "desc"]))
            for name in group
            if rng.random() < 0.6
        ]
        if not supports_order(fact.ftree, order):
            order = []
        specs = [aggregate("count", None, "n")]
        rest = [
            name
            for node in fact.ftree.nodes()
            if not set(group) & set(node.all_names)
            for name in node.all_names
        ]
        if rest:
            specs.append(aggregate("sum", rng.choice(sorted(rest)), "total"))
        query = Query(
            relations=("T",),
            group_by=tuple(group),
            aggregates=tuple(specs),
            order_by=tuple(normalise_order(order)),
        )
        expected = ref_flat_aggregate_rows(query, fact)
        assert flat_aggregate_output(query, fact).rows == expected


# ---------------------------------------------------------------------------
# Laziness
# ---------------------------------------------------------------------------
def _wide_fact(groups: int = 500, left: int = 25, right: int = 20):
    """``groups * left * right`` rows in ``groups + left + right`` values."""
    tree = _make_tree([("a", [("b", []), ("c", [])])])
    b = CUnion(list(range(left)), ())
    c = CUnion(list(range(right)), ())
    root = CUnion(list(range(groups)), ([b] * groups, [c] * groups))
    return Factorisation(tree, [root])


@pytest.fixture()
def produced(monkeypatch):
    """Rows the expander has produced so far, whoever consumes them."""
    counter = {"rows": 0, "largest": 0}
    walk = enum._walk

    def counting(plan, unions):
        for rows, columns in walk(plan, unions):
            counter["rows"] += rows
            counter["largest"] = max(counter["largest"], rows)
            yield rows, columns

    monkeypatch.setattr(enum, "_walk", counting)
    return counter


@pytest.mark.parametrize("limit", [1, 10, 1000, 5000])
def test_limit_touches_at_most_one_block_more(produced, limit):
    fact = _wide_fact()
    assert fact.tuple_count() == 250_000
    rows = list(iter_tuples(fact, ["a", ("b", "desc")], limit))
    assert len(rows) == limit
    assert produced["largest"] <= enum._BLOCK_ROWS
    assert produced["rows"] < limit + enum._BLOCK_ROWS


def test_first_row_of_a_large_result_is_cheap(produced):
    database = Database()
    database.add_factorised("T", _wide_fact())
    with connect(database, engine="fdb-factorised", cache=False) as session:
        result = session.sql("SELECT * FROM T ORDER BY a DESC, c")
        assert next(iter(result)) == (499, 0, 0)
        assert 0 < produced["rows"] <= enum._BLOCK_ROWS
        assert result.first() == (499, 0, 0)


def _leaf(size: int) -> CUnion:
    return CUnion(list(range(size)), ())


WIDE = {
    # Two independent roots, the second one wide.
    "roots": (
        [("a", []), ("b", [])],
        lambda: [_leaf(3), _leaf(200_000)],
        ["a", "b"],
    ),
    # One root with a wide leaf fan-out below every entry.
    "fan-out": (
        [("a", [("b", [])])],
        lambda: [CUnion([0, 1, 2], ([_leaf(200_000)] * 3,))],
        ["a", ("b", "desc")],
    ),
    # A wide independent branch (c, e) beside a narrow one (b, d).
    "branch": (
        [("a", [("b", [("d", [])]), ("c", [("e", [])])])],
        lambda: [
            CUnion(
                [0, 1],
                (
                    [CUnion([0, 1, 2], ([_leaf(2)] * 3,))] * 2,
                    [CUnion(list(range(400)), ([_leaf(500)] * 400,))] * 2,
                ),
            )
        ],
        ["a", "b", "d", "c", "e"],
    ),
}


@pytest.mark.parametrize("shape", sorted(WIDE))
def test_wide_unions_and_branches_stay_lazy_and_bounded(produced, shape):
    """Blocks are bounded in rows, not in entries: a huge leaf union, a
    huge second root or a huge independent branch is neither built
    before the first row nor held in one list while streaming."""
    spec, roots, order = WIDE[shape]
    fact = Factorisation(_make_tree(spec), roots())
    total = fact.tuple_count()
    assert total >= 600_000
    assert list(iter_tuples(fact, order, 1)) == list(ref_iter_tuples(fact, order, 1))
    assert 0 < produced["rows"] <= enum._BLOCK_ROWS
    produced["rows"] = 0
    rows = iter_tuples(fact, order)
    assert list(islice(rows, 5000)) == list(ref_iter_tuples(fact, order, 5000))
    assert produced["rows"] < 5000 + enum._BLOCK_ROWS
    assert sum(1 for _ in rows) == total - 5000
    assert produced["rows"] == total
    assert produced["largest"] <= enum._BLOCK_ROWS


def test_independent_branch_is_enumerated_once(monkeypatch):
    """The right branch is a cached block: its unions are read once per
    context, not once per value of the left branch."""
    reads = {"c": 0}

    class Counted(list):
        def __iter__(self):
            reads["c"] += 1
            return super().__iter__()

    tree = _make_tree([("a", [("b", [("d", [])]), ("c", [("e", [])])])])
    leaf = CUnion([1, 2], ())
    b = CUnion(list(range(30)), ([leaf] * 30,))
    c = CUnion(list(range(4)), (Counted([leaf] * 4),))
    fact = Factorisation(tree, [CUnion([0, 1], ([b, b], [c, c]))])
    order = ["a", "b", "d", "c", "e"]
    rows = list(iter_tuples(fact, order))
    assert rows == list(ref_iter_tuples(fact, order))
    assert len(rows) == 2 * 60 * 8
    # At most one pass over c's child column per entry of ``a`` (both
    # entries share c, so their rows may share one); 60 each if the
    # branch were expanded again below every value of ``b``.
    assert reads["c"] <= 2


class Tripwire(CUnion):
    """A union whose entries fail when read."""

    __slots__ = ()

    def __init__(self) -> None:
        CUnion.children.__set__(self, ())

    @property
    def values(self):
        raise AssertionError("a union past the first block was read")


def test_limit_never_reads_unions_past_the_first_block(produced):
    """Rows past the first block are not built, and neither are the
    unions under them read: a LIMIT stops the expansion there."""
    tree = _make_tree([("a", [("b", [("c", [])])])])
    pair = CUnion([0, 1], ())
    below = [CUnion(list(range(100)), ([pair] * 100,)) for _ in range(40)]
    trap = below[30].children[0]
    below[30] = CUnion(below[30].values, (trap[:50] + [Tripwire()] + trap[51:],))
    fact = Factorisation(tree, [CUnion(list(range(40)), (below,))])
    for limit in (1, 1000, 2047):
        rows = list(iter_tuples(fact, ["a", "b", ("c", "desc")], limit))
        assert rows[-1] == ((limit - 1) // 200, (limit - 1) % 200 // 2, 1 - (limit - 1) % 2)
        assert produced["rows"] < limit + enum._BLOCK_ROWS
        produced["rows"] = 0
    with pytest.raises(AssertionError, match="past the first block"):
        list(iter_tuples(fact, ["a", "b", "c"]))


# ---------------------------------------------------------------------------
# The seeded sweep: the workload f-trees under every order they support
# ---------------------------------------------------------------------------
def theorem2_orders(tree: FTree) -> list[list[str]]:
    """Every order list ``tree`` supports (Theorem 2), one name per node."""
    out: list[list[str]] = []

    def extend(order: list[str], available: list) -> None:
        out.append(order)
        for index, node in enumerate(available):
            rest = available[:index] + available[index + 1 :] + list(node.children)
            extend(order + [node.name], rest)

    extend([], list(tree.roots))
    return out


@pytest.fixture(scope="module")
def sweep_facts():
    """R1, R2 and R3 as the workload stores them, and a product of two
    roots: R3 beside a small two-level tree."""
    facts = dict(build_workload_database(scale=0.25, seed=11).factorised)
    r3 = facts["R3"]
    side = CUnion([0, 1, 2, 3], ([CUnion([5, 6, 7], ())] * 4,))
    tree = FTree([*r3.ftree.roots, *_make_tree([("x", [("y", [])])]).roots])
    facts["product"] = Factorisation(tree, [*r3.roots, side])
    return facts


SWEEP = ["R1", "R2", "R3", "product"]


@pytest.mark.parametrize("name", SWEEP)
def test_sweep_every_supported_order(sweep_facts, name):
    """Each order list with all keys ascending and with a seeded mix of
    directions, each with a seeded subset and permutation of columns:
    the rows and their order are the reference generator's."""
    rng = random.Random(f"sweep-{name}")
    fact = sweep_facts[name]
    schema = fact.schema()
    for names in theorem2_orders(fact.ftree):
        for mixed in (False, True):
            order = [(n, "desc" if mixed and rng.random() < 0.5 else "asc") for n in names]
            expected = list(ref_iter_tuples(fact, order))
            columns = rng.sample(schema, rng.randrange(1, len(schema) + 1))
            picks = [schema.index(column) for column in columns]
            blocks = list(iter_blocks(fact, order, columns))
            assert all(0 < len(block) <= enum._BLOCK_ROWS for block in blocks)
            assert list(chain.from_iterable(blocks)) == [
                tuple(row[p] for p in picks) for row in expected
            ]


@pytest.mark.parametrize("limit", [1, 1023, 1024, 1025])
def test_sweep_limits_draw_at_most_one_block_more(sweep_facts, produced, limit):
    rng = random.Random(limit)
    assert sweep_facts["R1"].tuple_count() > 2 * limit
    for name in SWEEP:
        fact = sweep_facts[name]
        orders = theorem2_orders(fact.ftree)
        for names in rng.sample(orders, min(6, len(orders))):
            order = [(n, rng.choice(["asc", "desc"])) for n in names]
            produced["rows"] = produced["largest"] = 0
            rows = list(iter_tuples(fact, order, limit))
            assert rows == list(ref_iter_tuples(fact, order, limit))
            assert produced["rows"] < limit + enum._BLOCK_ROWS
            assert produced["largest"] <= enum._BLOCK_ROWS


@pytest.mark.parametrize("name", SWEEP)
def test_sweep_on_demand_orders(sweep_facts, name):
    """Orders one swap away on the workload trees: the merge yields the
    swapped factorisation's rows, position by position."""
    rng = random.Random(f"merge-{name}")
    fact = sweep_facts[name]
    checked = 0
    for _ in range(12):
        order = random_merge_order(rng, fact.ftree)
        if order is None:
            continue
        swapped = ops.swap(fact.ftree, enum.on_demand_swap(fact.ftree, order)).run(fact)
        columns = swapped.schema()
        expected = list(ref_iter_tuples(swapped, order))
        for limit in (1, 1023, 1024, 1025, None):
            rows = chain.from_iterable(iter_blocks(fact, order, columns))
            assert list(islice(rows, limit)) == expected[:limit]
        checked += 1
    assert checked


def test_empty_and_zero_attribute_relations():
    tree = _make_tree([("a", [("b", [])]), ("c", [])])
    empty = Factorisation(tree, [CUnion([], ([],)), CUnion([1, 2], ())])
    for order in ([], ["a"], [("c", "desc"), "a", "b"]):
        assert list(iter_blocks(empty, order)) == []
        assert list(iter_tuples(empty, order, 5)) == []
    nothing = Factorisation(FTree([]), [])
    assert list(iter_blocks(nothing)) == [[()]]
    assert list(iter_tuples(nothing, (), 3)) == [()]


AGGREGATE_SWEEP = [
    "SELECT package, SUM(price) AS s FROM R1 GROUP BY package ORDER BY package DESC",
    "SELECT date, package, SUM(price) AS s, COUNT(*) AS c, AVG(price) AS a "
    "FROM R1 GROUP BY date, package ORDER BY date, package",
    "SELECT customer, AVG(price) AS a FROM R1 GROUP BY customer "
    "HAVING a > 5 ORDER BY customer",
    "SELECT package, date, COUNT(*) AS c, MIN(price) AS lo, AVG(price) AS a "
    "FROM R1 GROUP BY package, date HAVING c > 2 ORDER BY package DESC, date "
    "LIMIT 50",
    "SELECT customer, SUM(price) AS s FROM R1 GROUP BY customer "
    "ORDER BY s DESC LIMIT 3",
]


@pytest.mark.parametrize("engine", ["fdb", "fdb-factorised"])
@pytest.mark.parametrize("sql", AGGREGATE_SWEEP)
def test_sweep_aggregate_outputs_match_sqlite(sweep_db, engine, sql):
    with connect(sweep_db, engine=engine, cache=False) as session, connect(
        sweep_db, engine="sqlite", cache=False
    ) as oracle:
        assert session.sql(sql).rows == oracle.sql(sql).rows


@pytest.fixture(scope="module")
def sweep_db():
    return build_workload_database(scale=0.25, seed=11)


# ---------------------------------------------------------------------------
# Group output against the old per-context loop
# ---------------------------------------------------------------------------
EXTRA_AGGREGATES = [
    "SELECT package, date, AVG(price) AS a, COUNT(*) AS c FROM R1 "
    "GROUP BY package, date HAVING c > 3 ORDER BY package DESC, date LIMIT 40",
    "SELECT customer, SUM(price) AS s, MIN(price) AS lo FROM R1 "
    "GROUP BY customer HAVING s > 100",
    "SELECT AVG(price) AS a FROM R1 WHERE price > 100000",
    "SELECT COUNT(*) AS c, MAX(price) AS m FROM R1 WHERE price > 100000",
    "SELECT COUNT(*) AS c FROM R1 WHERE price > 100000 HAVING c > 0",
    "SELECT date, AVG(price) AS a FROM R1 WHERE price > 100000 GROUP BY date",
    "SELECT price, SUM(price) AS total, COUNT(*) AS n FROM Items GROUP BY price",
    "SELECT item, price, MAX(price) AS m FROM Items GROUP BY item, price "
    "ORDER BY item DESC LIMIT 7",
    "SELECT date, customer, COUNT(*) AS n FROM Orders GROUP BY date, customer",
]


def _aggregate_queries():
    for name, workload in sorted(FULL_WORKLOAD.items()):
        if workload.query.aggregates:
            yield name, workload.query
    for index, sql in enumerate(EXTRA_AGGREGATES):
        yield f"extra{index}", parse_query(sql)


def _planned_fact(engine: FDBEngine, query, database):
    """The factorisation ``execute_planned`` hands to the output stage."""
    compiled = engine.compile(query, database)
    fact = build_inputs(compiled, database)
    trace = ExecutionTrace()
    selects = compiled.query.comparisons
    fact = FPlan([SelectStep(c) for c in selects]).execute(fact, trace)
    return compiled.query, compiled.plan.execute(fact, trace)


@pytest.mark.parametrize(
    "name,query", list(_aggregate_queries()), ids=lambda v: v if isinstance(v, str) else ""
)
def test_group_output_matches_old_loop(tiny_workload_db, name, query):
    aliases = {spec.alias for spec in query.aggregates}
    if any(key.attribute in aliases for key in query.order_by):
        pytest.skip("ordered by an alias: not the flat group-output path")
    engine = FDBEngine()
    effective, fact = _planned_fact(engine, query, tiny_workload_db)
    got = flat_aggregate_output(effective, fact)
    assert got.rows == ref_flat_aggregate_rows(effective, fact)
    assert got.schema == tuple(effective.output_schema)
    # The factorised engine shares the enumerator: same rows, same order
    # whenever the query fixes one.
    finalised = finalised_result(effective, fact)
    rows = finalised.to_relation().rows
    assert list(finalised.iter_tuples()) == rows
    if len(query.order_by) == len(query.group_by):
        assert rows == got.rows
    elif query.limit is None:
        assert sorted(rows, key=repr) == sorted(got.rows, key=repr)


def test_null_average_and_empty_input_rows(tiny_workload_db):
    engine = FDBEngine()
    run = lambda sql: engine.execute(parse_query(sql), tiny_workload_db).rows
    assert run("SELECT AVG(price) AS a FROM R1 WHERE price > 100000") == [(None,)]
    assert run(
        "SELECT COUNT(*) AS c, MAX(price) AS m FROM R1 WHERE price > 100000"
    ) == [(0, None)]
    assert run(
        "SELECT date, AVG(price) AS a FROM R1 WHERE price > 100000 GROUP BY date"
    ) == []
    flat = tiny_workload_db.flat("Items")
    prices = sorted({row[flat.position("price")] for row in flat.rows})
    assert run("SELECT price, SUM(price) AS s FROM Items GROUP BY price") == [
        (p, p * sum(1 for row in flat.rows if row[flat.position("price")] == p))
        for p in prices
    ]


# ---------------------------------------------------------------------------
# Engine-built results are adopted, not re-validated
# ---------------------------------------------------------------------------
def test_engine_results_skip_row_validation(tiny_workload_db, monkeypatch):
    validated = []
    original = Relation.__init__

    def counting(self, schema, rows=(), name=""):
        rows = list(rows)
        validated.append(len(rows))
        original(self, schema, rows, name)

    monkeypatch.setattr(Relation, "__init__", counting)
    engine = FDBEngine()
    for sql in (
        "SELECT * FROM R2 ORDER BY package, item, date LIMIT 500",
        "SELECT package, date, SUM(price) AS s FROM R1 GROUP BY package, date",
        "SELECT customer, SUM(price) AS r FROM R1 GROUP BY customer ORDER BY r",
    ):
        assert len(engine.execute(parse_query(sql), tiny_workload_db).rows) > 10
    factorised = FDBEngine(output="factorised").execute(
        parse_query("SELECT * FROM R3 ORDER BY date"), tiny_workload_db
    )
    assert len(factorised.to_relation().rows) > 100
    assert len(factorised.factorisation.to_relation().rows) > 100
    assert validated == []
    with pytest.raises(Exception):
        Relation(("a", "b"), [(1,)])  # user-supplied rows are still checked
