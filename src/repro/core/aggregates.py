"""What the aggregation recursion of Section 3.2 consults.

The recursion itself — count, sum and min/max over the relation
*represented* by a factorisation fragment, in time linear in the size
of the fragment — is the level-batched γ of :mod:`repro.core.kernels`.
This module holds what it looks up on the way: how a product of
factors splits over a node (its own values, or a stored partial of an
aggregate node) and its children, the localised-flattening enumerator
for factors that need joint values, and the Proposition 2 composition
predicates used by the optimiser.

Aggregate attributes are interpreted as pre-aggregated relations
(Example 6): a ⟨count(X): c⟩ singleton counts as ``c`` tuples, and a
⟨sum_A(X): s⟩ singleton contributes ``s`` to a later sum over A.
Illegal compositions — e.g. counting over a fragment that only retains
sums — raise :class:`CompositionError`, mirroring the side conditions
of Proposition 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _cartesian
from typing import Any, Callable, Iterator, Sequence

from repro.core.frep import CUnion, iter_entries
from repro.core.ftree import AggregateAttribute, FNode
from repro.expr import Attr, Expr, linearise

#: A fragment is a node together with its union of entries.
FragmentItem = tuple[FNode, CUnion]

#: One γ component: an aggregation function over a bare attribute
#: (``("sum", "price")``), over nothing (``("count", None)``), over a
#: product of factors (``("sum", (col("price"), col("price")))``), or —
#: for min/max — over a scalar expression.
Component = tuple[str, "str | tuple | Expr | None"]

#: ``count(node, union)``: the tuples one fragment represents.
Counter = Callable[[FNode, CUnion], int]


class CompositionError(ValueError):
    """An aggregation cannot be evaluated over a fragment (Prop. 2)."""


class EmptyAggregateError(ValueError):
    """sum/min/max over an empty represented relation."""


def _count_component(node: FNode) -> int:
    component = node.aggregate.count_component
    if component is None:
        raise CompositionError(
            f"cannot count over aggregate attribute {node.aggregate} "
            "that retains no count component (illegal composition, Prop. 2)"
        )
    return component


def empty_aggregate_components(functions: Sequence[Component]) -> tuple:
    """Component values of an aggregation over zero input rows.

    The SQL rule every engine shares: COUNT is 0, everything else is
    NULL (``None``).  Aligned with ``functions`` like γ's component
    tuples.
    """
    return tuple(
        0 if function == "count" else None for function, _ in functions
    )


# ---------------------------------------------------------------------------
# Products of factors over a product of fragments
# ---------------------------------------------------------------------------
def _available_attributes(node: FNode) -> set[str]:
    """Attributes a fragment can speak about: atomic or aggregated-over."""
    attrs: set[str] = set()
    for current in node.walk():
        attrs.update(current.attributes)
        if current.aggregate is not None:
            attrs.update(current.aggregate.over)
    return attrs


def assign_factors(
    factors: Sequence[Expr], nodes: Sequence[FNode]
) -> "tuple[tuple[Expr, ...], ...] | None":
    """The factors each of the independent ``nodes`` holds: a factor
    goes to the one subtree holding all its attributes.  ``None`` when
    a factor straddles several subtrees — a sum over it needs their
    values jointly."""
    if not factors:  # a count: no subtree walk needed
        return ((),) * len(nodes)
    available = [_available_attributes(node) for node in nodes]
    assigned: list[list[Expr]] = [[] for _ in nodes]
    for factor in factors:
        attrs = set(factor.attributes())
        holders = [i for i, held in enumerate(available) if attrs & held]
        if not holders:
            raise CompositionError(
                f"attributes {sorted(attrs)} are not available under "
                f"{[node.label() for node in nodes]}"
            )
        if len(holders) > 1 or not attrs <= available[holders[0]]:
            return None
        assigned[holders[0]].append(factor)
    return tuple(map(tuple, assigned))


def split_term(
    function: str, factors: Sequence[Expr], node: FNode
) -> tuple[int, "int | None", "int | None", "tuple | None"]:
    """How ⊕ Π ``factors`` decomposes at ``node``, ⊕ being ``function``
    (``sum``, ``min`` or ``max``): ``(power, lift, weight, below)``.

    On an atomic node, ``power`` factors are the node's own attribute:
    each value enters to that power.  On an aggregate node, the stored
    partial ``lift`` of ``function`` stands for the one factor it
    aggregated, or, when it aggregated none, the count component
    ``weight`` multiplies into a sum (Example 6; extrema ignore counts).
    ``below`` assigns the other factors to the children
    (:func:`assign_factors`); ``None`` when a factor needs this node's
    and a child's values jointly, or two children's.
    """
    aggregate = node.aggregate
    mine = set(node.attributes) if aggregate is None else aggregate.over
    here = [f for f in factors if mine.intersection(f.attributes())]
    rest = [f for f in factors if not mine.intersection(f.attributes())]
    if aggregate is None:
        if not all(isinstance(factor, Attr) for factor in here):
            return 0, None, None, None
        return len(here), None, None, assign_factors(rest, node.children)
    if not here:
        weight = _count_component(node) if function == "sum" else None
        return 0, None, weight, assign_factors(rest, node.children)
    lift = None
    if len(here) == 1 and isinstance(here[0], Attr):
        lift = aggregate.component(function, here[0].name)
    if lift is None:
        raise CompositionError(
            f"cannot {function} {' * '.join(map(str, here))} over aggregate "
            f"attribute {aggregate}: it keeps no partial {function} of it "
            "(illegal composition, Prop. 2)"
        )
    return 0, lift, None, assign_factors(rest, node.children)


# ---------------------------------------------------------------------------
# Localised flattening (factors that need joint values)
# ---------------------------------------------------------------------------
@dataclass
class ExpressionStats:
    """Instrumentation of one execution's expression evaluation.

    ``native_terms`` counts the sums of products the final γ distributed
    over independent branches without enumeration (once per γ, not per
    group); ``flatten_events`` counts the localised-flattening fallbacks
    (factors whose attributes co-occur below a common branch, extrema of
    expressions), and ``flattened_rows`` the tuples those fallbacks
    enumerated.  Exposed on the execution trace so tests and
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


def flatten(
    function: str,
    factors: Sequence[Expr],
    items: Sequence[FragmentItem],
    count: Counter,
    stats: ExpressionStats | None = None,
    binding: "dict | None" = None,
) -> Any:
    """⊕ Π ``factors`` over a product of fragments by localised
    flattening, ⊕ being ``function`` (``sum``, ``min`` or ``max``): the
    fragments holding the factors' attributes are enumerated down to
    those attributes.  Under a sum each row weighs in with its
    multiplicity and every other fragment with its count; extrema do
    not distribute over arithmetic and ignore multiplicities.
    ``binding`` fixes attributes from outside the fragments."""
    binding = binding or {}
    needed = {a for factor in factors for a in factor.attributes()} - set(binding)
    involved = [item for item in items if _available_attributes(item[0]) & needed]
    covered = set().union(*[_available_attributes(node) for node, _ in involved])
    if needed - covered:
        raise CompositionError(
            f"expression attributes {sorted(needed - covered)} are not "
            "available in the fragment forest"
        )
    weighted = function == "sum"
    found = []
    for row, multiplicity in _iter_forest_bindings(involved, needed, count):
        row.update(binding)
        value: Any = multiplicity if weighted else 1
        for factor in factors:
            value *= factor.evaluate(row)
        found.append(value)
    if stats is not None:
        stats.record_flatten(len(found))
    if weighted:
        weight = 1
        for node, union in items:
            if not _available_attributes(node) & needed:
                weight *= count(node, union)
        return sum(found) * weight
    if not found:
        raise EmptyAggregateError(f"{function} over an empty fragment")
    return min(found) if function == "min" else max(found)


def _iter_forest_bindings(
    items: Sequence[FragmentItem], needed: set[str], count: Counter
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
        list(_iter_fragment_bindings(node, union, needed, count))
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
    node: FNode, union: CUnion, needed: set[str], count: Counter
) -> Iterator[tuple[dict[str, Any], int]]:
    for value, entry_children in iter_entries(union):
        if node.aggregate is not None:
            if node.aggregate.over & needed:
                raise CompositionError(
                    f"attributes {sorted(node.aggregate.over & needed)} "
                    f"were aggregated into {node.aggregate}; the joint "
                    "values are no longer enumerable"
                )
            weight = value[_count_component(node)]  # ⟨count(X): c⟩ is c tuples
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
                weight *= count(child, entry_children[index])
        if not relevant:
            yield base, weight
            continue
        child_items = [
            (node.children[index], entry_children[index])
            for index in relevant
        ]
        for child_binding, child_weight in _iter_forest_bindings(
            child_items, needed, count
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
            protected |= _term_attributes(term)[1]
            attrs = frozenset(term.attributes())
            if len(attrs) > 1 and attrs not in coupled:
                coupled.append(attrs)
    return tuple(coupled), frozenset(protected)


def planner_components(
    specs: Sequence,
) -> tuple[tuple[str, str | None], ...]:
    """Attribute-level γ components the optimiser may materialise.

    A classical spec contributes its own component (AVG a sum and a
    count, every COUNT ``("count", None)``); expression aggregates
    contribute per-attribute partial sums (one per linear factor
    occurrence) plus a shared count, which is exactly what the final
    expression evaluation can compose (Σ a·b over independent branches
    = Σa · Σb).
    """
    components: dict[tuple[str, str | None], None] = {}
    want = components.setdefault  # ordered, deduplicated
    for spec in specs:
        target = spec.attribute
        if spec.function == "count":
            want(("count", None))
        elif isinstance(target, Expr):
            if spec.function in ("sum", "avg"):
                for term in linearise(target):
                    for name in _term_attributes(term)[0]:
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
        want(("count", None))
    return tuple(components)


def _term_attributes(term) -> tuple[list[str], set[str]]:
    """A linearised term's attributes as ``(lone, tied)``: ``lone`` ones
    occur once, as a bare factor, so a partial sum of each composes;
    ``tied`` ones are squared or sit inside an opaque factor."""
    bare = [factor.name for factor in term.factors if isinstance(factor, Attr)]
    tied = {
        name
        for factor in term.factors
        if not isinstance(factor, Attr)
        for name in factor.attributes()
    }
    tied.update(name for name in bare if bare.count(name) > 1)
    return [name for name in dict.fromkeys(bare) if name not in tied], tied


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
    needed: dict[tuple[str, str | None], None] = {}
    want = needed.setdefault  # ordered, deduplicated
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
