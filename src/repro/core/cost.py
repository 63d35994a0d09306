"""Size bounds for factorisations: the optimiser's cost metric.

Olteanu & Závodný [22] show that the size of a factorisation over an
f-tree T is tightly bounded using fractional edge cover numbers [13]:
for each node v, the number of distinct contexts reaching v is at most
|D|^{ρ*(path(v))}, where ρ* is the fractional edge cover number of the
query hypergraph restricted to the atomic attributes on the root-to-v
path.  Summing over nodes gives an asymptotic bound on the number of
singletons, and the maximal exponent s(T) governs the growth rate.

The LP ``min Σ x_R  s.t.  Σ_{R ∋ a} x_R ≥ 1 for every path attribute a``
is solved exactly by enumerating basic feasible solutions over
``Fraction`` arithmetic (the optimum of a bounded feasible LP is
attained at a vertex, i.e. at some choice of ``n`` linearly independent
tight constraints).  Vertex enumeration is exponential in principle, so
it is guarded by ``_PURE_COVER_LIMIT``; past the guard a greedy integral
cover (still an upper bound, hence a sound size bound) is used.
Solutions are memoised per attribute set.

Aggregate nodes contribute one singleton per parent context, so they
are charged the exponent of the atomic attributes on their path — which
falls out naturally from "restrict to atomic attributes".

Beyond the asymptotic bounds this module also prices trees against
*observed* statistics (``repro.stats``): ``estimated_node_count``
combines the AGM bound ``∏_R |R|^{x_R}`` (real cardinalities raised to
the cover weights) with a distinct-count product bound, and
``estimated_tree_size`` sums it over the nodes of an f-tree — the cost
metric of the cost-based optimiser.

These are *bounds*: benchmarks also record actual sizes, and the test
suite checks bound ≥ actual on randomised inputs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Any, Iterable, Mapping, Sequence

from repro.core.ftree import FNode, FTree

# Past this many candidate bases the exact pure-Python LP would be too
# slow; fall back to a greedy integral cover (a sound upper bound).
_PURE_COVER_LIMIT = 200_000


def _solve_square(
    matrix: "list[list[Fraction]]", rhs: "list[Fraction]"
) -> "list[Fraction] | None":
    """Solve one n×n linear system exactly; ``None`` when singular."""
    n = len(rhs)
    aug = [list(matrix[i]) + [rhs[i]] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inverse = aug[col][col]
        aug[col] = [value / inverse for value in aug[col]]
        for row in range(n):
            if row != col and aug[row][col]:
                factor = aug[row][col]
                aug[row] = [
                    value - factor * basis
                    for value, basis in zip(aug[row], aug[col])
                ]
    return [aug[row][n] for row in range(n)]


def _pure_cover_solve(
    names: Sequence[str],
    attrs: Sequence[str],
    edges: Mapping[str, frozenset],
) -> "tuple[float, dict[str, float]]":
    """Exact covering-LP solution.

    Enumerates every basis (n tight constraints among the m coverage
    rows and n nonnegativity rows), solves it over ``Fraction``, and
    keeps the feasible vertex with the smallest objective.  The LP is
    always feasible (x ≡ 1 covers everything) and bounded below by 0,
    so an optimal vertex exists and the enumeration finds it.
    """
    n = len(names)
    m = len(attrs)
    if n == 0 or m == 0:
        return 0.0, {}
    if math.comb(m + n, n) > _PURE_COVER_LIMIT:
        return _greedy_cover(names, attrs, edges)
    rows: "list[tuple[list[int], int]]" = []
    for attribute in attrs:
        rows.append(
            ([1 if attribute in edges[name] else 0 for name in names], 1)
        )
    for j in range(n):
        coefficients = [0] * n
        coefficients[j] = 1
        rows.append((coefficients, 0))
    best: "tuple[Fraction, list[Fraction]] | None" = None
    for basis in combinations(range(len(rows)), n):
        matrix = [
            [Fraction(rows[index][0][j]) for j in range(n)] for index in basis
        ]
        rhs = [Fraction(rows[index][1]) for index in basis]
        solution = _solve_square(matrix, rhs)
        if solution is None or any(value < 0 for value in solution):
            continue
        feasible = all(
            sum(c * x for c, x in zip(coefficients, solution)) >= 1
            for coefficients, _ in rows[:m]
        )
        if not feasible:
            continue
        objective = sum(solution, Fraction(0))
        if best is None or objective < best[0]:
            best = (objective, solution)
    assert best is not None  # x ≡ 1 guarantees a feasible vertex
    weights = {
        name: float(weight)
        for name, weight in zip(names, best[1])
        if weight > 0
    }
    return float(best[0]), weights


def _greedy_cover(
    names: Sequence[str],
    attrs: Sequence[str],
    edges: Mapping[str, frozenset],
) -> "tuple[float, dict[str, float]]":
    """Integral greedy set cover: an upper bound on ρ*, hence sound."""
    uncovered = set(attrs)
    weights: dict[str, float] = {}
    while uncovered:
        name = max(names, key=lambda n: len(edges[n] & uncovered))
        gained = edges[name] & uncovered
        if not gained:
            break  # remaining attributes are uncoverable (filtered earlier)
        weights[name] = 1.0
        uncovered -= gained
    return float(sum(weights.values())), weights


# Cover solutions shared across Hypergraph instances: planning builds
# a fresh hypergraph per compile, but the (edges, attribute-set) pairs
# repeat — one LP solve serves every later compile of the same query.
_COVER_MEMO_LIMIT = 4096
_COVER_MEMO: "dict[tuple, tuple[float, dict[str, float]]]" = {}


class Hypergraph:
    """The query hypergraph: one hyperedge (attribute set) per relation."""

    def __init__(self, edges: Mapping[str, Iterable[str]]) -> None:
        self.edges: dict[str, frozenset[str]] = {
            name: frozenset(attrs) for name, attrs in edges.items()
        }
        self._canonical = tuple(
            sorted(
                (name, tuple(sorted(map(str, attrs))))
                for name, attrs in self.edges.items()
            )
        )
        self._cover_cache: dict[frozenset[str], float] = {}
        self._weight_cache: dict[frozenset[str], dict[str, float]] = {}
        covered: set[str] = set()
        for attrs in self.edges.values():
            covered |= attrs
        self._covered = frozenset(covered)

    def covered_attributes(self) -> "frozenset[str]":
        return self._covered

    def with_equivalences(self, classes: Iterable[Sequence[str]]) -> "Hypergraph":
        """Extend edges so attributes equal by selection share coverage.

        If a relation covers one attribute of an equivalence class it
        covers them all (a selection A=B lets either side's relation
        bound the class's values).
        """
        class_list = [frozenset(c) for c in classes]
        edges = {}
        for name, attrs in self.edges.items():
            extended = set(attrs)
            for cls in class_list:
                if extended & cls:
                    extended |= cls
            edges[name] = extended
        return Hypergraph(edges)

    # ------------------------------------------------------------------
    def _solve(self, relevant: frozenset) -> None:
        """Solve the covering LP for ``relevant``, filling both caches."""
        memo_key = (self._canonical, tuple(sorted(map(str, relevant))))
        memoised = _COVER_MEMO.get(memo_key)
        if memoised is not None:
            self._cover_cache[relevant] = memoised[0]
            self._weight_cache[relevant] = memoised[1]
            return
        attrs = sorted(relevant)
        names = [
            name for name, edge in self.edges.items() if edge & relevant
        ]
        value, weights = _pure_cover_solve(names, attrs, self.edges)
        if len(_COVER_MEMO) >= _COVER_MEMO_LIMIT:
            _COVER_MEMO.clear()
        _COVER_MEMO[memo_key] = (value, weights)
        self._cover_cache[relevant] = value
        self._weight_cache[relevant] = weights

    def fractional_edge_cover(self, attributes: Iterable[str]) -> float:
        """ρ*(attributes): minimal total weight of edges covering them.

        Attributes not covered by any edge are ignored (they are derived
        attributes whose values are functionally determined).  An empty
        effective set has cover number 0.
        """
        relevant = frozenset(attributes) & self.covered_attributes()
        if not relevant:
            return 0.0
        cached = self._cover_cache.get(relevant)
        if cached is not None:
            return cached
        self._solve(relevant)
        return self._cover_cache[relevant]

    def cover_weights(self, attributes: Iterable[str]) -> dict[str, float]:
        """The optimal LP weights ``x_R`` behind ``fractional_edge_cover``.

        Keys are relation names with strictly positive weight; the AGM
        bound on the number of covered tuples is ``∏_R |R|^{x_R}``.
        """
        relevant = frozenset(attributes) & self.covered_attributes()
        if not relevant:
            return {}
        cached = self._weight_cache.get(relevant)
        if cached is not None:
            return dict(cached)
        self._solve(relevant)
        return dict(self._weight_cache[relevant])


def node_exponents(ftree: FTree, hypergraph: Hypergraph) -> dict[str, float]:
    """ρ*(path(v)) per node (keyed by node name)."""
    exponents: dict[str, float] = {}

    def walk(node: FNode, path_attrs: frozenset[str]) -> None:
        here = path_attrs | frozenset(node.attributes)
        exponents[node.name] = hypergraph.fractional_edge_cover(here)
        for child in node.children:
            walk(child, here)

    for root in ftree.roots:
        walk(root, frozenset())
    return exponents


def s_parameter(ftree: FTree, hypergraph: Hypergraph) -> float:
    """s(T): the maximal path exponent — the growth rate |D|^{s(T)}."""
    exponents = node_exponents(ftree, hypergraph)
    return max(exponents.values(), default=0.0)


def ftree_cost(
    ftree: FTree, hypergraph: Hypergraph, scale: float = 1024.0
) -> float:
    """Σ_v scale^{ρ*(path(v))}: the size-bound cost of one f-tree.

    ``scale`` stands in for |D|; any value > 1 ranks trees identically
    at the asymptotic level while still rewarding fewer nodes at equal
    exponents.
    """
    exponents = node_exponents(ftree, hypergraph)
    return float(sum(scale**e for e in exponents.values()))


def plan_cost(
    trees: Sequence[FTree], hypergraph: Hypergraph, scale: float = 1024.0
) -> float:
    """Cost of an operator sequence: total size bound of all results.

    The execution cost of f-plans is dictated by the sizes of the
    intermediate and final factorisations (Section 2.1), so a plan is
    charged the sum of its per-step output bounds.
    """
    return float(sum(ftree_cost(tree, hypergraph, scale) for tree in trees))


# ---------------------------------------------------------------------------
# Data-driven estimates (consumed by the cost-based optimiser)
# ---------------------------------------------------------------------------
def estimated_node_count(
    hypergraph: Hypergraph,
    attributes: Iterable[str],
    stats: "Mapping[str, Any]",
    scale: float = 1024.0,
) -> float:
    """Estimated distinct contexts for one root-to-node attribute path.

    Two admissible bounds are combined by taking their minimum:

    - the AGM bound ``∏_R rows(R)^{x_R}`` over the optimal cover
      weights, with ``scale`` standing in for relations without
      statistics, and
    - a distinct-count product bound ``∏_a min_{R ∋ a} distinct(R, a)``
      (each path attribute contributes at most its smallest distinct
      count over the relations covering it).

    Where one input is a resident factorised view that holds every
    path attribute, its own entry counts give a point estimate
    (:func:`view_count`), capped by the two bounds.

    ``stats`` maps relation name → an object exposing ``rows`` and an
    ``attributes`` mapping of per-attribute objects with ``distinct``
    and ``total``, and optionally ``nesting``
    (duck-typed so ``repro.core`` needs no import of ``repro.stats``).
    """
    relevant = frozenset(attributes) & hypergraph.covered_attributes()
    if not relevant:
        return 1.0
    agm = 1.0
    for name, weight in hypergraph.cover_weights(relevant).items():
        if weight <= 0:
            continue
        relation = stats.get(name)
        rows = getattr(relation, "rows", None) if relation is not None else None
        agm *= float(rows if rows is not None else scale) ** weight
    product = 1.0
    for attribute in sorted(relevant):
        distinct = None
        for name, edge in hypergraph.edges.items():
            if attribute not in edge:
                continue
            relation = stats.get(name)
            if relation is None:
                continue
            entry = relation.attributes.get(attribute)
            if entry is None:
                continue
            if distinct is None or entry.distinct < distinct:
                distinct = entry.distinct
        if distinct is None:
            distinct = scale
        product *= float(max(distinct, 1))
    estimate = min(agm, product)
    for relation in stats.values():
        counted = view_count(relation, relevant)
        if counted is not None:
            estimate = min(estimate, counted)
    return max(1.0, estimate)


def view_count(relation: Any, attributes: "frozenset[str]") -> "float | None":
    """Tuples over ``attributes`` estimated from a view's entry counts.

    ``relation.nesting`` gives each attribute's root-to-node path in
    the f-tree the view is stored over, and an attribute's ``total`` is
    the exact number of entries its node holds, i.e. of distinct tuples
    over that path.  Branches of an f-tree are independent given their
    common ancestors, so the tuples over the union of several paths
    number the product, over the nodes on them, of each node's fan-out
    ``total(node) / total(parent)`` — exact for a single path, the
    uniform-fan-out estimate across branches.  Ancestors that are not
    among ``attributes`` are counted too (projecting them away can only
    merge tuples), which the caller's distinct-product bound corrects.
    ``None`` when the record carries no nesting or misses an attribute.
    """
    nesting = getattr(relation, "nesting", None)
    if not nesting or not attributes <= nesting.keys():
        return None
    entries = relation.attributes
    fans: dict[str, float] = {}
    for attribute in attributes:
        above = 1
        for step in nesting[attribute]:
            if step not in entries:
                return None
            total = entries[step].total
            fans[step] = total / max(above, 1)
            above = total
    return math.prod(fans.values())


def estimated_tree_size(
    ftree: FTree,
    hypergraph: Hypergraph,
    stats: "Mapping[str, Any]",
    scale: float = 1024.0,
    node_memo: "dict[frozenset, float] | None" = None,
) -> float:
    """Estimated singleton count of a factorisation over ``ftree``.

    Mirrors the ``node_exponents`` walk but prices each node with
    ``estimated_node_count`` — real cardinalities and distinct counts
    instead of ``scale`` raised to an asymptotic exponent.
    ``node_memo`` (keyed by the path attribute set) can be shared
    across the many candidate trees of one optimisation run, which
    mostly differ in a few nodes.
    """
    memo = node_memo if node_memo is not None else {}
    total = 0.0
    for root in ftree.roots:
        total = _add_subtree_size(
            total, root, frozenset(), hypergraph, stats, scale, memo
        )
    return total


def _add_subtree_size(
    total: float,
    node: FNode,
    path_attrs: frozenset[str],
    hypergraph: Hypergraph,
    stats: "Mapping[str, Any]",
    scale: float,
    memo: dict,
) -> float:
    """``total`` plus the estimated size of ``node``'s subtree, summed in
    preorder (a module function: a self-calling closure is a cycle)."""
    here = path_attrs | frozenset(node.attributes)
    count = memo.get(here)
    if count is None:
        count = memo[here] = estimated_node_count(hypergraph, here, stats, scale)
    total += count
    for child in node.children:
        total = _add_subtree_size(
            total, child, here, hypergraph, stats, scale, memo
        )
    return total

