"""The recursive aggregation algorithms of Section 3.2.

These evaluators compute an aggregation function over the relation
*represented* by a factorisation fragment, in time linear in the size of
the fragment — even though the represented relation can be exponentially
larger.  The four cases of each paper algorithm map onto our structure
as follows: a singleton is an entry's value; a union is the
:class:`repro.core.frep.CUnion` of a node; a product is an entry's
tuple of child fragments (plus the product across forest roots).  Each
evaluator runs one comprehension pass per child column of a union.

Aggregate attributes are interpreted as pre-aggregated relations
(Example 6): a ⟨count(X): c⟩ singleton counts as ``c`` tuples, and a
⟨sum_A(X): s⟩ singleton contributes ``s`` to a later sum over A.
Illegal compositions — e.g. counting over a fragment that only retains
sums — raise :class:`CompositionError`, mirroring the side conditions
of Proposition 2.

The module also provides :func:`evaluate_components` (composite
aggregation functions, Section 3.2.4: all components in one pass with a
shared count) and the Proposition 2 composition predicates used by the
optimiser.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _cartesian
from typing import Any, Iterator, Sequence

from repro.core.frep import CUnion, iter_entries
from repro.core.ftree import AggregateAttribute, FNode
from repro.expr import Attr, Expr, Term, linearise

#: A fragment is a node together with its union of entries.
FragmentItem = tuple[FNode, CUnion]

#: One γ component: an aggregation function over a bare attribute
#: (``("sum", "price")``), over nothing (``("count", None)``), or over
#: a scalar expression (``("sum", col("price") * col("qty"))``).
Component = tuple[str, "str | Expr | None"]


class CompositionError(ValueError):
    """An aggregation cannot be evaluated over a fragment (Prop. 2)."""


class EmptyAggregateError(ValueError):
    """sum/min/max over an empty represented relation."""


# ---------------------------------------------------------------------------
# count (Section 3.2.1)
# ---------------------------------------------------------------------------
def count_union(node: FNode, union: CUnion) -> int:
    """|⟦E⟧| for the fragment of ``node``: Σ over entries (disjoint union)."""
    values = union.values
    cols = union.children
    if node.aggregate is None:
        acc = None  # all multiplicities are 1
    else:
        component = _count_component(node)
        acc = [value[component] for value in values]
    if not cols:
        return len(values) if acc is None else sum(acc)
    for child, col in zip(node.children, cols):
        counts = [count_union(child, sub) for sub in col]
        acc = counts if acc is None else [a * c for a, c in zip(acc, counts)]
    return sum(acc)


def count_forest(items: Sequence[FragmentItem]) -> int:
    """|⟦E1 × ... × Ek⟧| = Π |⟦Ei⟧| (product of independent fragments)."""
    product = 1
    for node, union in items:
        product *= count_union(node, union)
    return product


def _count_component(node: FNode) -> int:
    component = node.aggregate.count_component
    if component is None:
        raise CompositionError(
            f"cannot count over aggregate attribute {node.aggregate} "
            "that retains no count component (illegal composition, Prop. 2)"
        )
    return component


def _value_multiplicity(node: FNode, value: Any) -> int:
    """Tuples represented by one singleton: 1, or c for ⟨count(X):c⟩."""
    if node.aggregate is None:
        return 1
    return value[_count_component(node)]


def empty_aggregate_components(functions: Sequence[Component]) -> tuple:
    """Component values of an aggregation over zero input rows.

    The SQL rule every engine shares: COUNT is 0, everything else is
    NULL (``None``).  Aligned with ``functions`` like the evaluators'
    component tuples.
    """
    return tuple(
        0 if function == "count" else None for function, _ in functions
    )


def empty_aggregate_row(specs: Sequence) -> tuple:
    """The single output row of ungrouped aggregates over zero rows.

    ``specs`` are :class:`repro.query.AggregateSpec`-likes; same SQL
    rule as :func:`empty_aggregate_components`, keyed by spec function.
    """
    return tuple(
        0 if spec.function == "count" else None for spec in specs
    )


def forest_is_empty(items: Sequence[FragmentItem]) -> bool:
    """Whether a product of fragments represents zero tuples.

    Purely structural (no composition side conditions, unlike
    :func:`count_forest`): a product is empty iff some fragment
    represents no tuples — an empty union, every entry blocked by an
    empty child fragment, or a ⟨count: 0⟩ singleton.
    """
    return any(union_is_empty(node, union) for node, union in items)


def union_is_empty(node: FNode, union: CUnion) -> bool:
    """Whether one fragment represents zero tuples."""
    values = union.values
    if not values:
        return True
    cols = union.children
    children = node.children
    component = (
        node.aggregate.count_component if node.aggregate is not None else None
    )
    span = range(len(cols))
    # Early exit on the first non-empty entry (the common case).
    for i, value in enumerate(values):  # repro: allow[kernel-scalar-loop]
        if component is not None and value[component] == 0:
            continue
        if any(union_is_empty(children[c], cols[c][i]) for c in span):
            continue
        return False
    return True


# ---------------------------------------------------------------------------
# sum_A (Section 3.2.2)
# ---------------------------------------------------------------------------
def sum_union(attribute: str, node: FNode, union: CUnion) -> Any:
    """Σ of ``attribute`` over ⟦fragment⟧ (carrier resolved once per union)."""
    carrier = _carries(node, attribute, "sum")
    values = union.values
    cols = union.children
    if carrier == "here":
        component = (
            None
            if node.aggregate is None
            else node.aggregate.sum_component(attribute)
        )
        acc = (
            list(values)
            if component is None
            else [value[component] for value in values]
        )
        for child, col in zip(node.children, cols):
            counts = [count_union(child, sub) for sub in col]
            acc = [a * c for a, c in zip(acc, counts)]
        return sum(acc)
    # Below: exactly one child column carries the attribute; its partial
    # sums are scaled by the counts of the sibling columns and by the
    # entry multiplicities.
    children = node.children
    carrier_index = _locate_nodes(children, attribute, "sum")
    acc = [
        sum_union(attribute, children[carrier_index], sub)
        for sub in cols[carrier_index]
    ]
    for c, child in enumerate(children):
        if c == carrier_index:
            continue
        counts = [count_union(child, sub) for sub in cols[c]]
        acc = [a * k for a, k in zip(acc, counts)]
    if node.aggregate is not None:
        component = _count_component(node)
        acc = [a * value[component] for a, value in zip(acc, values)]
    return sum(acc)


def sum_forest(attribute: str, items: Sequence[FragmentItem]) -> Any:
    """Σ of ``attribute`` over a product: sum in its fragment × counts."""
    carrier_index = _locate(items, attribute, "sum")
    node, union = items[carrier_index]
    total = sum_union(attribute, node, union)
    for index, (other_node, other_union) in enumerate(items):
        if index != carrier_index:
            total *= count_union(other_node, other_union)
    return total


# ---------------------------------------------------------------------------
# min_A / max_A (Section 3.2.3)
# ---------------------------------------------------------------------------
def extremum_union(
    function: str, attribute: str, node: FNode, union: CUnion
) -> Any:
    """min/max of ``attribute`` over ⟦fragment⟧ (multiplicity-free);
    sortedness gives the atomic 'here' case in O(1)."""
    pick = min if function == "min" else max
    values = union.values
    if not values:
        raise EmptyAggregateError(f"{function} over an empty fragment")
    carrier = _carries(node, attribute, function)
    if carrier == "here":
        component = (
            None
            if node.aggregate is None
            else node.aggregate.component(function, attribute)
        )
        if component is None:
            return values[0] if function == "min" else values[-1]
        return pick(value[component] for value in values)
    carrier_index = _locate_nodes(node.children, attribute, function)
    child = node.children[carrier_index]
    return pick(
        extremum_union(function, attribute, child, sub)
        for sub in union.children[carrier_index]
    )


def extremum_forest(
    function: str, attribute: str, items: Sequence[FragmentItem]
) -> Any:
    """min/max over a product: only the carrying fragment matters."""
    carrier_index = _locate(items, attribute, function)
    node, union = items[carrier_index]
    return extremum_union(function, attribute, node, union)


# ---------------------------------------------------------------------------
# Attribute location helpers
# ---------------------------------------------------------------------------
def subtree_carries(node: FNode, attribute: str, function: str) -> bool:
    """Whether ``node``'s subtree can supply ``function`` over ``attribute``.

    True if the subtree holds the atomic attribute or an aggregate
    attribute with a matching partial component.  An aggregate attribute
    that merely *covers* the attribute (aggregated it away without
    keeping the right component) makes a later evaluation illegal; that
    is reported by the evaluators, not here.
    """
    for current in node.walk():
        if attribute in current.attributes:
            return True
        if current.aggregate is not None:
            partial = "sum" if function == "sum" else function
            if current.aggregate.component(partial, attribute) is not None:
                return True
            if current.aggregate.covers(attribute):
                return True
    return False


def _carries(node: FNode, attribute: str, function: str) -> str:
    """'here' if the node itself supplies the value, 'below' otherwise."""
    if attribute in node.attributes:
        return "here"
    if node.aggregate is not None:
        if node.aggregate.component(function, attribute) is not None:
            return "here"
        if node.aggregate.covers(attribute):
            raise CompositionError(
                f"aggregate attribute {node.aggregate} covers {attribute!r} "
                f"but retains no {function} component (illegal composition)"
            )
    for child in node.children:
        if subtree_carries(child, attribute, function):
            return "below"
    raise CompositionError(
        f"attribute {attribute!r} is not available under node "
        f"{node.label()!r}"
    )


def _locate_nodes(
    nodes: Sequence[FNode], attribute: str, function: str
) -> int:
    carriers = [
        index
        for index, node in enumerate(nodes)
        if subtree_carries(node, attribute, function)
    ]
    if len(carriers) != 1:
        raise CompositionError(
            f"attribute {attribute!r} must occur in exactly one fragment of "
            f"a product; found {len(carriers)}"
        )
    return carriers[0]


def _locate(items: Sequence[FragmentItem], attribute: str, function: str) -> int:
    return _locate_nodes([node for node, _ in items], attribute, function)


# ---------------------------------------------------------------------------
# Aggregates over scalar expressions (Section 3.2 on arithmetic arguments)
# ---------------------------------------------------------------------------
@dataclass
class ExpressionStats:
    """Instrumentation of one execution's expression evaluation.

    ``native_terms`` counts product terms distributed over independent
    branches without enumeration; ``flatten_events`` counts the
    localised-flattening fallbacks (expression attributes co-occurring
    below a common branch), and ``flattened_rows`` the tuples those
    fallbacks enumerated.  Exposed on the execution trace so tests and
    ``Result.explain()`` can assert the factorised path stayed native.
    """

    native_terms: int = 0
    flatten_events: int = 0
    flattened_rows: int = 0

    def record_flatten(self, rows: int) -> None:
        self.flatten_events += 1
        self.flattened_rows += rows

    def describe(self) -> str:
        if self.flatten_events == 0:
            return (
                f"factorisation-native ({self.native_terms} term(s), "
                "no flattening)"
            )
        return (
            f"{self.native_terms} native term(s), "
            f"{self.flatten_events} localised flattening(s) over "
            f"{self.flattened_rows} row(s)"
        )


def _available_attributes(node: FNode) -> set[str]:
    """Attributes a fragment can speak about: atomic or aggregated-over."""
    attrs: set[str] = set()
    for current in node.walk():
        attrs.update(current.attributes)
        if current.aggregate is not None:
            attrs.update(current.aggregate.over)
    return attrs


def sum_expression_forest(
    expr: Expr,
    items: Sequence[FragmentItem],
    evaluator: "CachedEvaluator | None" = None,
    stats: ExpressionStats | None = None,
) -> Any:
    """Σ of a scalar expression over the relation of a fragment forest.

    The expression is linearised into Σ cᵢ·Πⱼ fᵢⱼ; each term's factors
    are pushed to the independent fragments that carry their attributes
    (partial sums multiply across branches, Section 3.2.2 generalised),
    falling back to localised flattening only where a term's attributes
    co-occur below a common branch.
    """
    total: Any = 0
    for term in linearise(expr):
        total += _term_sum_forest(term, items, evaluator, stats)
    return total


def _count_item(
    node: FNode, union: CUnion, evaluator: "CachedEvaluator | None"
) -> int:
    if evaluator is not None:
        return evaluator.count_item(node, union)
    return count_union(node, union)


def _sum_item(
    attribute: str,
    node: FNode,
    union: CUnion,
    evaluator: "CachedEvaluator | None",
) -> Any:
    if evaluator is not None:
        return evaluator.sum_item(attribute, node, union)
    return sum_union(attribute, node, union)


def _term_sum_forest(
    term: Term,
    items: Sequence[FragmentItem],
    evaluator: "CachedEvaluator | None",
    stats: ExpressionStats | None,
) -> Any:
    items = list(items)
    if not term.factors:
        total = term.coefficient
        for node, union in items:
            total *= _count_item(node, union, evaluator)
        return total
    available = [_available_attributes(node) for node, _ in items]
    assigned: list[list[Expr]] = [[] for _ in items]
    spanning = False
    for factor in term.factors:
        attrs = set(factor.attributes())
        holders = [i for i, a in enumerate(available) if attrs & a]
        if not holders:
            missing = attrs - set().union(*available) if available else attrs
            raise CompositionError(
                f"expression attributes {sorted(missing)} are not "
                "available in the fragment forest"
            )
        if len(holders) == 1 and attrs <= available[holders[0]]:
            assigned[holders[0]].append(factor)
        else:
            spanning = True
            break
    if spanning:
        # A single factor straddles independent fragments (e.g. a
        # quotient with attributes in two branches): enumerate the
        # involved fragments jointly, counts for the rest.
        needed = set(term.attributes())
        involved = [i for i, a in enumerate(available) if a & needed]
        total = term.coefficient * _flatten_sum(
            term.factors, [items[i] for i in involved], needed, stats
        )
        for i, (node, union) in enumerate(items):
            if i not in involved:
                total *= _count_item(node, union, evaluator)
        return total
    if stats is not None:
        stats.native_terms += 1
    total = term.coefficient
    for (node, union), factors in zip(items, assigned):
        if factors:
            total *= _term_sum_fragment(factors, node, union, evaluator, stats)
        else:
            total *= _count_item(node, union, evaluator)
    return total


def _term_sum_fragment(
    factors: Sequence[Expr],
    node: FNode,
    union: CUnion,
    evaluator: "CachedEvaluator | None",
    stats: ExpressionStats | None,
) -> Any:
    """Σ of a product of factors over one fragment's relation."""
    if len(factors) == 1 and isinstance(factors[0], Attr):
        # Bare attribute: the Section 3.2.2 evaluator (understands
        # partial-sum components of aggregate attributes).
        return _sum_item(factors[0].name, node, union, evaluator)
    if evaluator is not None:
        key = ("expr-term", tuple(factors), id(union))
        return evaluator._memo(
            key,
            union,
            lambda: _term_sum_fragment(factors, node, union, None, stats),
        )
    if node.aggregate is not None:
        raise CompositionError(
            f"cannot evaluate a product of factors over pre-aggregated "
            f"attribute {node.aggregate} (joint distribution lost)"
        )
    node_attrs = set(node.attributes)
    here: list[Expr] = []
    rest: list[Expr] = []
    for factor in factors:
        if isinstance(factor, Attr) and factor.name in node_attrs:
            here.append(factor)
        else:
            rest.append(factor)
    child_available = [_available_attributes(c) for c in node.children]
    child_factors: list[list[Expr]] = [[] for _ in node.children]
    decomposable = True
    for factor in rest:
        attrs = set(factor.attributes())
        if attrs & node_attrs:
            decomposable = False  # composite factor mixing levels
            break
        holders = [i for i, a in enumerate(child_available) if attrs & a]
        if len(holders) == 1 and attrs <= child_available[holders[0]]:
            child_factors[holders[0]].append(factor)
        else:
            decomposable = False
            break
    if not decomposable:
        needed = {a for factor in factors for a in factor.attributes()}
        return _flatten_sum(factors, [(node, union)], needed, stats)
    total: Any = 0
    for value, entry_children in iter_entries(union):
        prod: Any = 1
        for _ in here:
            prod *= value
        for child, assigned, child_union in zip(
            node.children, child_factors, entry_children
        ):
            if assigned:
                prod *= _term_sum_fragment(
                    assigned, child, child_union, None, stats
                )
            else:
                prod *= count_union(child, child_union)
        total += prod
    return total


def _flatten_sum(
    factors: Sequence[Expr],
    items: Sequence[FragmentItem],
    needed: set[str],
    stats: ExpressionStats | None,
) -> Any:
    """Localised flattening: enumerate the involved fragments' rows."""
    total: Any = 0
    rows = 0
    for binding, weight in _iter_forest_bindings(items, needed):
        value: Any = weight
        for factor in factors:
            value *= factor.evaluate(binding)
        total += value
        rows += 1
    if stats is not None:
        stats.record_flatten(rows)
    return total


def extremum_expression_forest(
    function: str,
    expr: Expr,
    items: Sequence[FragmentItem],
    stats: ExpressionStats | None = None,
) -> Any:
    """min/max of a scalar expression over a fragment forest.

    Extrema do not distribute over arithmetic, so the involved
    fragments are enumerated (weights — multiplicities — are
    irrelevant for extrema); independent fragments are ignored.
    """
    pick = min if function == "min" else max
    needed = set(expr.attributes())
    involved = [
        (node, union)
        for node, union in items
        if _available_attributes(node) & needed
    ]
    covered = set().union(
        *(_available_attributes(node) for node, _ in involved)
    ) if involved else set()
    if needed - covered:
        raise CompositionError(
            f"expression attributes {sorted(needed - covered)} are not "
            "available in the fragment forest"
        )
    best: Any = None
    seen = False
    rows = 0
    for binding, _ in _iter_forest_bindings(involved, needed):
        value = expr.evaluate(binding)
        best = value if not seen else pick(best, value)
        seen = True
        rows += 1
    if stats is not None and needed:
        stats.record_flatten(rows)
    if not seen:
        raise EmptyAggregateError(f"{function} over an empty fragment")
    return best


def _iter_forest_bindings(
    items: Sequence[FragmentItem], needed: set[str]
) -> Iterator[tuple[dict[str, Any], int]]:
    """Weighted row bindings of a product of fragments, localised.

    Yields ``(binding, weight)`` pairs covering exactly the ``needed``
    attributes; subtrees without needed attributes contribute their
    tuple counts to the weight instead of being expanded.
    """
    if not items:
        yield {}, 1
        return
    streams = [
        list(_iter_fragment_bindings(node, union, needed))
        for node, union in items
    ]
    for combo in _cartesian(*streams):
        binding: dict[str, Any] = {}
        weight = 1
        for part, part_weight in combo:
            binding.update(part)
            weight *= part_weight
        yield binding, weight


def _iter_fragment_bindings(
    node: FNode, union: CUnion, needed: set[str]
) -> Iterator[tuple[dict[str, Any], int]]:
    for value, entry_children in iter_entries(union):
        if node.aggregate is not None:
            if node.aggregate.over & needed:
                raise CompositionError(
                    f"attributes {sorted(node.aggregate.over & needed)} "
                    f"were aggregated into {node.aggregate}; the joint "
                    "values are no longer enumerable"
                )
            weight = _value_multiplicity(node, value)
            base: dict[str, Any] = {}
        else:
            weight = 1
            base = {
                name: value
                for name in node.attributes
                if name in needed
            }
        relevant = [
            index
            for index, child in enumerate(node.children)
            if _available_attributes(child) & needed
        ]
        for index, child in enumerate(node.children):
            if index not in relevant:
                weight *= count_union(child, entry_children[index])
        if not relevant:
            yield base, weight
            continue
        child_items = [
            (node.children[index], entry_children[index])
            for index in relevant
        ]
        for child_binding, child_weight in _iter_forest_bindings(
            child_items, needed
        ):
            binding = dict(base)
            binding.update(child_binding)
            yield binding, weight * child_weight


# ---------------------------------------------------------------------------
# Planner-facing expression analysis
# ---------------------------------------------------------------------------
def expression_constraints(
    specs: Sequence,
) -> tuple[tuple[frozenset[str], ...], frozenset[str]]:
    """γ-placement constraints induced by expression aggregates.

    Returns ``(coupled, protected)``: ``coupled`` groups of attributes
    that co-occur multiplicatively in one term (a γ may absorb at most
    one of each group — separate partial sums cannot recover the joint
    product); ``protected`` attributes that must stay atomic entirely
    (arguments of min/max expressions, attributes inside opaque factors
    such as non-constant divisors, and attributes squared within a
    term).
    """
    coupled: list[frozenset[str]] = []
    protected: set[str] = set()
    for spec in specs:
        target = spec.attribute
        if not isinstance(target, Expr):
            continue
        if spec.function in ("min", "max"):
            protected.update(target.attributes())
            continue
        for term in linearise(target):
            occurrences: dict[str, int] = {}
            for factor in term.factors:
                if isinstance(factor, Attr):
                    occurrences[factor.name] = occurrences.get(factor.name, 0) + 1
                else:
                    protected.update(factor.attributes())
            protected.update(a for a, n in occurrences.items() if n > 1)
            attrs = frozenset(term.attributes())
            if len(attrs) > 1 and attrs not in coupled:
                coupled.append(attrs)
    return tuple(coupled), frozenset(protected)


def planner_components(
    specs: Sequence,
) -> tuple[tuple[str, str | None], ...]:
    """Attribute-level γ components the optimiser may materialise.

    For classical specs this matches :func:`repro.core.engine.
    expand_functions`; expression aggregates contribute per-attribute
    partial sums (one per linear factor occurrence) plus a shared
    count, which is exactly what the final expression evaluation can
    compose (Σ a·b over independent branches = Σa · Σb).
    """
    components: list[tuple[str, str | None]] = []

    def want(component: tuple[str, str | None]) -> None:
        if component not in components:
            components.append(component)

    for spec in specs:
        target = spec.attribute
        if spec.function == "count":
            want(("count", None))
        elif isinstance(target, Expr):
            if spec.function in ("sum", "avg"):
                for term in linearise(target):
                    occurrences: dict[str, int] = {}
                    opaque: set[str] = set()
                    for factor in term.factors:
                        if isinstance(factor, Attr):
                            occurrences[factor.name] = (
                                occurrences.get(factor.name, 0) + 1
                            )
                        else:
                            opaque.update(factor.attributes())
                    for name, count in occurrences.items():
                        if count == 1 and name not in opaque:
                            want(("sum", name))
                want(("count", None))
            # min/max expressions: no usable attribute-level partials;
            # their attributes are protected from aggregation instead.
        elif spec.function == "avg":
            want(("sum", target))
            want(("count", None))
        else:
            want((spec.function, target))
    if specs and not components:
        # Pure expression-extremum queries still need counts so the
        # planner can aggregate unrelated subtrees and group.
        components.append(("count", None))
    return tuple(components)


# ---------------------------------------------------------------------------
# Composite aggregation functions (Section 3.2.4)
# ---------------------------------------------------------------------------
def evaluate_components(
    functions: Sequence[Component],
    items: Sequence[FragmentItem],
    stats: ExpressionStats | None = None,
) -> tuple:
    """Evaluate several aggregation functions over one fragment forest.

    Shared work: the count is computed once even when several components
    need it (the paper notes the two count computations of an avg are
    shared).  Components over scalar expressions route through the
    Section 3.2 distribution machinery.  Returns the tuple of component
    values aligned with ``functions``.
    """
    count_cache: int | None = None

    def counted() -> int:
        nonlocal count_cache
        if count_cache is None:
            count_cache = count_forest(items)
        return count_cache

    values = []
    for function, attribute in functions:
        if function == "count":
            values.append(counted())
        elif isinstance(attribute, Expr):
            if function == "sum":
                values.append(
                    sum_expression_forest(attribute, items, stats=stats)
                )
            elif function in ("min", "max"):
                values.append(
                    extremum_expression_forest(
                        function, attribute, items, stats=stats
                    )
                )
            else:
                raise CompositionError(
                    f"unknown aggregation function {function!r}"
                )
        elif function == "sum":
            values.append(sum_forest(attribute, items))
        elif function in ("min", "max"):
            values.append(extremum_forest(function, attribute, items))
        else:
            raise CompositionError(f"unknown aggregation function {function!r}")
    return tuple(values)


class CachedEvaluator:
    """Memoising wrapper over the recursive evaluators.

    During group-context enumeration (Example 1, case 3) the same
    partial-aggregate fragments recur under many group assignments;
    caching per fragment keeps the on-the-fly combination constant-time
    per tuple after the first visit.  Cache keys pin the union objects
    so ``id`` reuse cannot alias entries.
    """

    def __init__(self, stats: ExpressionStats | None = None) -> None:
        self._cache: dict[tuple, Any] = {}
        self._pins: list = []
        self.stats = stats

    def _memo(self, key: tuple, union: CUnion, compute) -> Any:
        if key not in self._cache:
            self._cache[key] = compute()
            self._pins.append(union)
        return self._cache[key]

    def count_item(self, node: FNode, union: CUnion) -> int:
        return self._memo(
            ("count", id(union)), union, lambda: count_union(node, union)
        )

    def sum_item(self, attribute: str, node: FNode, union: CUnion) -> Any:
        return self._memo(
            ("sum", attribute, id(union)),
            union,
            lambda: sum_union(attribute, node, union),
        )

    def extremum_item(
        self, function: str, attribute: str, node: FNode, union: CUnion
    ) -> Any:
        return self._memo(
            (function, attribute, id(union)),
            union,
            lambda: extremum_union(function, attribute, node, union),
        )

    def components(
        self,
        functions: Sequence[tuple[str, str | None]],
        items: Sequence[FragmentItem],
    ) -> tuple:
        """Composite evaluation over a forest with per-fragment caching."""
        count_total: int | None = None

        def counted() -> int:
            nonlocal count_total
            if count_total is None:
                product = 1
                for node, union in items:
                    product *= self.count_item(node, union)
                count_total = product
            return count_total

        values = []
        for function, attribute in functions:
            if function == "count":
                values.append(counted())
            elif isinstance(attribute, Expr):
                if function == "sum":
                    values.append(
                        sum_expression_forest(
                            attribute, items, evaluator=self, stats=self.stats
                        )
                    )
                elif function in ("min", "max"):
                    values.append(
                        extremum_expression_forest(
                            function, attribute, items, stats=self.stats
                        )
                    )
                else:
                    raise CompositionError(
                        f"unknown aggregation function {function!r}"
                    )
            elif function == "sum":
                carrier = _locate(items, attribute, "sum")
                node, union = items[carrier]
                total = self.sum_item(attribute, node, union)
                for index, (other_node, other_union) in enumerate(items):
                    if index != carrier:
                        total *= self.count_item(other_node, other_union)
                values.append(total)
            elif function in ("min", "max"):
                carrier = _locate(items, attribute, function)
                node, union = items[carrier]
                values.append(
                    self.extremum_item(function, attribute, node, union)
                )
            else:
                raise CompositionError(
                    f"unknown aggregation function {function!r}"
                )
        return tuple(values)


# ---------------------------------------------------------------------------
# Proposition 2: composition rules
# ---------------------------------------------------------------------------
def partial_functions_for(
    query_functions: Sequence[tuple[str, str | None]],
    subtree_attributes: set[str],
) -> tuple[tuple[str, str | None], ...]:
    """Which partial components a γ over ``subtree_attributes`` must keep.

    Per Proposition 2, a later ``sum_A`` composes with earlier ``sum_A``
    (when the subtree holds A) or ``count`` (when it does not); ``count``
    composes with ``count``; ``min``/``max`` compose with themselves and
    only apply to subtrees holding their attribute.  The returned tuple
    is deduplicated with counts shared across components.
    """
    needed: list[tuple[str, str | None]] = []

    def want(component: tuple[str, str | None]) -> None:
        if component not in needed:
            needed.append(component)

    for function, attribute in query_functions:
        if function == "count":
            want(("count", None))
        elif function in ("sum", "avg"):
            if attribute in subtree_attributes:
                want(("sum", attribute))
                if function == "avg":
                    want(("count", None))
            else:
                want(("count", None))
        elif function in ("min", "max"):
            if attribute in subtree_attributes:
                want((function, attribute))
            # A min/max never needs partials from attribute-free subtrees:
            # multiplicities do not affect extrema.
    return tuple(needed)


def composable(
    outer: tuple[str, str | None], inner: AggregateAttribute
) -> bool:
    """Can ``outer`` be evaluated over a fragment holding ``inner``?

    Encodes Proposition 2: F(U)∘F(V) for equal functions; sum_A over an
    earlier count when A is outside the counted subtree; commuting cases
    are handled by the optimiser keeping disjoint subtrees independent.
    """
    function, attribute = outer
    if function == "count":
        return inner.count_component is not None
    if function == "sum":
        if attribute in inner.over:
            return inner.sum_component(attribute) is not None
        return inner.count_component is not None
    if function in ("min", "max"):
        if attribute in inner.over:
            return inner.component(function, attribute) is not None
        return True  # extrema ignore independent fragments entirely
    return False
