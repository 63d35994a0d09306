"""The per-union §3.2 evaluators, kept as test oracles.

The engine folds every aggregate through the level-batched γ of
:mod:`repro.core.kernels`; these are the recursive one-union-at-a-time
algorithms it replaced, unchanged in what they compute: count, sum and
min/max over a fragment (Sections 3.2.1–3.2.3), composite evaluation
with a shared count (Section 3.2.4), sums of linearised expressions
distributed over independent branches with localised flattening where
factors co-occur, and the structural emptiness check.  Tests compare
the batch γ against them, value by value and refusal by refusal.
"""

from __future__ import annotations

from itertools import product as _cartesian
from typing import Any, Iterable, Iterator, Sequence

from repro.core.aggregates import (
    CompositionError,
    EmptyAggregateError,
    ExpressionStats,
    _available_attributes,
    empty_aggregate_components,
)
from repro.core.frep import CUnion, iter_entries, singleton_cunion
from repro.core.ftree import FNode
from repro.expr import Attr, Expr, Term, linearise

FragmentItem = tuple[FNode, CUnion]


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


def empty_aggregate_row(specs: Sequence) -> tuple:
    """The single output row of ungrouped aggregates over zero rows:
    COUNT is 0, every other aggregate NULL (``None``), as in SQL."""
    return empty_aggregate_components([(spec.function, None) for spec in specs])


def expand_functions(specs: Sequence) -> tuple[tuple[str, "str | None"], ...]:
    """Query aggregates as γ components, avg expanded to sum+count.

    Components are deduplicated so shared counts are computed once
    (Section 3.2.4); every COUNT is ``("count", None)``.  Expression
    aggregates appear as one component over their expression tree
    (``("sum", col("a") * col("b"))``), which the oracles evaluate
    whole; the engine's own γ splits it into its terms
    (:func:`repro.core.output.gamma_components`).
    """
    components: dict[tuple, None] = {}
    for spec in specs:
        if spec.function == "avg":
            components.setdefault(("sum", spec.attribute))
            components.setdefault(("count", None))
        elif spec.function == "count":
            components.setdefault(("count", None))
        else:
            components.setdefault((spec.function, spec.attribute))
    return tuple(components)


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


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------
def count_union(node: FNode, union: CUnion) -> int:
    values = union.values
    cols = union.children
    if node.aggregate is None:
        acc = None
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
    if node.aggregate is None:
        return 1
    return value[_count_component(node)]


def forest_is_empty(items: Sequence[FragmentItem]) -> bool:
    return any(union_is_empty(node, union) for node, union in items)


def union_is_empty(node: FNode, union: CUnion) -> bool:
    values = union.values
    if not values:
        return True
    cols = union.children
    children = node.children
    component = (
        node.aggregate.count_component if node.aggregate is not None else None
    )
    span = range(len(cols))
    for i, value in enumerate(values):
        if component is not None and value[component] == 0:
            continue
        if any(union_is_empty(children[c], cols[c][i]) for c in span):
            continue
        return False
    return True


def group_value_fragments(
    attributes: Iterable[str], assignment: dict[str, Any]
) -> list:
    """One-entry fragments exposing fixed group values to the evaluators."""
    return [
        (FNode((attr,)), singleton_cunion(assignment[attr]))
        for attr in sorted(attributes)
    ]


# ---------------------------------------------------------------------------
# sum
# ---------------------------------------------------------------------------
def sum_union(attribute: str, node: FNode, union: CUnion) -> Any:
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


def _locate(items: Sequence[FragmentItem], attribute: str, function: str) -> int:
    return _locate_nodes([node for node, _ in items], attribute, function)


def sum_forest(attribute: str, items: Sequence[FragmentItem]) -> Any:
    carrier_index = _locate(items, attribute, "sum")
    node, union = items[carrier_index]
    total = sum_union(attribute, node, union)
    for index, (other_node, other_union) in enumerate(items):
        if index != carrier_index:
            total *= count_union(other_node, other_union)
    return total


# ---------------------------------------------------------------------------
# min / max
# ---------------------------------------------------------------------------
def extremum_union(
    function: str, attribute: str, node: FNode, union: CUnion
) -> Any:
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
    carrier_index = _locate(items, attribute, function)
    node, union = items[carrier_index]
    return extremum_union(function, attribute, node, union)


# ---------------------------------------------------------------------------
# Expressions: linearised terms, localised flattening
# ---------------------------------------------------------------------------
def sum_expression_forest(
    expr: Expr,
    items: Sequence[FragmentItem],
    evaluator: "CachedEvaluator | None" = None,
    stats: ExpressionStats | None = None,
) -> Any:
    total: Any = 0
    for term in linearise(expr):
        total += _term_sum_forest(term, items, evaluator, stats)
    return total


def _count_item(node, union, evaluator) -> int:
    if evaluator is not None:
        return evaluator.count_item(node, union)
    return count_union(node, union)


def _sum_item(attribute, node, union, evaluator) -> Any:
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
    if len(factors) == 1 and isinstance(factors[0], Attr):
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
            decomposable = False
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
# Composite evaluation (Section 3.2.4)
# ---------------------------------------------------------------------------
def evaluate_components(
    functions: Sequence[tuple],
    items: Sequence[FragmentItem],
    stats: ExpressionStats | None = None,
) -> tuple:
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
    """Memoising wrapper over the recursive evaluators (cache keys pin
    the union objects so ``id`` reuse cannot alias entries)."""

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
        functions: Sequence[tuple],
        items: Sequence[FragmentItem],
    ) -> tuple:
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
