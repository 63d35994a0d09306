"""The output stage: a planned factorisation becomes the query result.

Its entry point, :func:`shape_output`, is a function of (output mode,
query, factorisation): it runs after the f-plan and reads nothing of
how the plan was chosen.

- flat output (the paper's "FDB"): the partial aggregates hanging below
  the group region are folded by one γ into an aggregate leaf per group
  (Example 1, case 3) and the groups are enumerated with constant
  delay; order-by and limit ride on the sorted unions (Theorems 1-2);
- factorised output ("FDB f/o"): the same γ folds them into a single
  aggregate attribute under a linearised group-by path, yielding a
  :class:`FactorisedResult`, a factorisation of the query result.

:func:`finaliser` is the one rule turning γ's components into the
values of the query's aggregates.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import chain, islice, repeat
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from repro.core import aggregates as agg
from repro.core import kernels
from repro.core import operators as ops
from repro.core.enumerate import (
    group_expansion,
    iter_blocks,
    iter_columns,
    restructure_for_order,
    supports_order,
)
from repro.core.frep import (
    CUnion,
    Factorisation,
    cut_level,
    level_bounds,
    level_values,
    map_cunion_level,
    splice_level,
)
from repro.core.ftree import AggregateAttribute, FNode, FTree, fresh_aggregate_name
from repro.expr import Attr, as_expr, linearise
from repro.obs import clock, spans
from repro.obs.state import STATE
from repro.query import AggregateSpec, Comparison, Query, QueryError
from repro.relational.relation import Relation
from repro.relational.sort import SortKey, normalise_order, sort_rows

_ENUMERATE_SECONDS = kernels.KERNEL_SECONDS.labels("enumerate")


class FactorisedResult:
    """Factorised query output (the FDB f/o mode).

    Wraps the result factorisation together with the query's output
    schema; tuples can be enumerated (optionally ordered/limited)
    without flattening the representation.
    """

    def __init__(
        self,
        factorisation: Factorisation,
        output_schema: Sequence[str],
        aggregate_node: str | None = None,
        specs: Sequence[AggregateSpec] = (),
        order: Sequence[SortKey] = (),
        limit: int | None = None,
        computed: Sequence = (),
    ) -> None:
        self.factorisation = factorisation
        self.output_schema = tuple(output_schema)
        self.aggregate_node = aggregate_node
        self.specs = tuple(specs)
        self.order = tuple(order)
        self.limit = limit
        self.computed = tuple(computed)

    def size(self) -> int:
        """Singleton count of the result representation."""
        return self.factorisation.size()

    def iter_blocks(self) -> Iterator[list[tuple]]:
        """Result rows in the query's order, block by block (no limit)."""
        fact = self.factorisation
        order = [key for key in self.order if key.attribute in fact.ftree]
        if self.computed:
            plain = self.output_schema[: -len(self.computed)]
            return _computed_blocks(fact, order, plain, self.computed)
        if self.aggregate_node is None:
            return iter_blocks(fact, order, self.output_schema)
        # Group attributes, then the aliases read off the aggregate
        # node's component tuples, finalised a column at a time (the
        # node may itself carry an alias).
        cut = len(self.output_schema) - len(self.specs)
        finish = finaliser(
            self.specs,
            fact.ftree.node(self.aggregate_node).aggregate.functions,
            self.output_schema[:cut],
        )
        blocks = iter_columns(
            fact, order, self.output_schema[:cut] + (self.aggregate_node,)
        )
        return (
            list(zip(*columns[:cut], *finish(columns[cut], columns[:cut])))
            for columns in blocks
        )

    def iter_tuples(self) -> Iterator[tuple]:
        """Enumerate result tuples in the query's order."""
        return islice(chain.from_iterable(self.iter_blocks()), self.limit)

    def to_relation(self, name: str = "") -> Relation:
        return Relation.adopt(
            self.output_schema, _drain(self.iter_tuples()), name=name or "result"
        )


def _drain(rows: Iterable[tuple]) -> list[tuple]:
    """Materialise enumerated rows; the ``enumerate`` kernel and span."""
    if not STATE.enabled:
        return list(rows)
    started = clock.now()
    if spans.current_span() is None:
        out = list(rows)
    else:
        with spans.span("enumerate") as span:
            out = list(rows)
            span.attributes["rows"] = len(out)
    _ENUMERATE_SECONDS.observe(clock.now() - started)
    return out


def finaliser(
    specs: Sequence[AggregateSpec],
    functions: Sequence[tuple],
    group: Sequence[str] = (),
) -> Callable[..., list[list]]:
    """``(component tuples, columns of group values) -> one column per
    spec``: the one finalisation rule, a column at a time.

    A spec whose own component (:func:`_component`) is stored reads it:
    ``("sum", "price")``, a whole ``("min", expr)``, and for every COUNT,
    ``COUNT(price)`` included, ``("count", None)``.
    A SUM otherwise assembles Σ cᵢ · Π gᵢ · componentᵢ over its terms
    (:func:`_terms`), the gᵢ read off the row's values of ``group``, and
    a MIN/MAX over grouping attributes alone evaluates its argument on
    them.  AVG is sum/count.  Over zero rows COUNT is 0 and every other
    aggregate NULL, as in SQL.
    """
    at = {component: index for index, component in enumerate(functions)}
    own = [at.get(_component(spec)) for spec in specs]
    count = at.get(("count", None))

    def total(target) -> Callable:
        index = at.get(("sum", target))
        if index is not None:
            return lambda value, groups: value[index]
        terms = [(c, fixed, at[part]) for c, fixed, part in _terms(target, group)]

        def assemble(value: tuple, groups: tuple):
            if not value[count]:
                return None  # SUM over zero rows
            binding = dict(zip(group, groups))
            out = 0
            for coefficient, fixed, index in terms:
                part = coefficient * value[index]
                for factor in fixed:
                    part *= factor.evaluate(binding)
                out += part
            return out

        return assemble

    def average(sums: Callable) -> Callable:
        return lambda value, groups: (
            sums(value, groups) / value[count] if value[count] else None
        )

    def of_group(target) -> Callable:
        expr = as_expr(target)
        return lambda value, groups: expr.evaluate(dict(zip(group, groups)))

    picks = []
    for spec, index in zip(specs, own):
        if index is not None:
            picks.append(itemgetter(index))
        elif spec.function == "avg":
            picks.append(average(total(spec.attribute)))
        elif spec.function == "sum":
            picks.append(total(spec.attribute))
        else:
            picks.append(of_group(spec.attribute))

    def finish(values: list, groups: Sequence[list] = ()) -> list[list]:
        return [
            list(map(pick, values))
            if index is not None
            else list(map(pick, values, zip(*groups) if groups else repeat(())))
            for pick, index in zip(picks, own)
        ]

    return finish


def _terms(target, group: Sequence[str]) -> list[tuple]:
    """A SUM argument as ``(coefficient, fixed, component)`` terms, its
    value being Σ coefficient · Π fixed · component (Section 3.2's
    linearised Σ cᵢ·Π fᵢⱼ).  The ``fixed`` factors read grouping
    attributes only — per-group constants, multiplied in from the row —
    and ``component`` is γ's Σ of the others: a bare attribute's sum, a
    product of factors, or the count when none is left."""
    members = set(group)
    out = []
    for term in linearise(as_expr(target)):
        fixed = tuple(f for f in term.factors if members.issuperset(f.attributes()))
        rest = tuple(f for f in term.factors if f not in fixed)
        if not rest:
            component = ("count", None)
        elif len(rest) == 1 and isinstance(rest[0], Attr):
            component = ("sum", rest[0].name)
        else:
            component = ("sum", rest)
        out.append((term.coefficient, fixed, component))
    return out


def gamma_components(
    specs: Sequence[AggregateSpec], group: Sequence[str]
) -> tuple[tuple, bool]:
    """The final γ's components for ``specs`` grouped by ``group``, and
    whether one of them reads a grouping attribute jointly with others.

    Attribute aggregates keep their own component (:func:`_component`);
    a SUM/AVG argument contributes one
    component per term (:func:`_terms`), and an expression's the count
    its NULL rule reads; a MIN/MAX of an expression stays whole; an
    argument over grouping attributes alone needs nothing but the row.
    """
    members = set(group)
    components: dict[tuple, None] = {}
    want = components.setdefault  # ordered, deduplicated
    bound = False
    for spec in specs:
        reads = set(spec.source_attributes)
        if spec.function == "count":
            want(("count", None))
        elif spec.function in ("min", "max"):
            if not reads <= members:
                want((spec.function, spec.attribute))
                bound = bound or bool(reads & members)
        else:
            for _, _, (function, target) in _terms(spec.attribute, group):
                want((function, target))
                if isinstance(target, tuple):
                    bound = bound or any(
                        members.intersection(f.attributes()) for f in target
                    )
            if spec.function == "avg" or spec.is_expression:
                want(("count", None))
    return tuple(components or [("count", None)]), bound


def _computed_blocks(
    fact: Factorisation, order: Sequence, plain: Sequence[str], computed: Sequence
) -> Iterator[list[tuple]]:
    """Row blocks of the ``plain`` columns with the ``computed`` ones
    appended, for the flat and the factorised output alike.

    π is set semantics: a non-injective expression can map distinct
    source tuples to equal output rows, and only the first is kept.
    """
    sources = sorted({a for column in computed for a in column.source_attributes})
    cut = len(plain)
    seen: set[tuple] = set()
    for block in iter_blocks(fact, order, list(plain) + sources):
        out = []
        for row in block:
            binding = dict(zip(sources, row[cut:]))
            row = row[:cut] + tuple(
                [column.expression.evaluate(binding) for column in computed]
            )
            if row not in seen:
                seen.add(row)
                out.append(row)
        yield out


def shape_output(
    mode: str,
    query: Query,
    fact: Factorisation,
    stats: "agg.ExpressionStats | None" = None,
    merged: str | None = None,
):
    """The result of ``query`` over the plan's output ``fact``: a
    Relation, or a :class:`FactorisedResult` in ``"factorised"`` mode.

    ``merged``: the order's last χ, left to the enumerator
    (:class:`repro.core.engine.OrderSwap`) — rows, columns and order are
    those of the swapped factorisation."""
    if not query.aggregates:
        return _spj_output(mode, query, fact, merged)
    if mode == "factorised":
        return finalised_result(query, fact, stats)
    aliases = {spec.alias for spec in query.aggregates}
    if not any(key.attribute in aliases for key in query.order_by):
        return flat_aggregate_output(query, fact, stats)
    if len(query.aggregates) == 1:
        # The paper's route: finalise, promote the aggregate node (a
        # swap), enumerate in sorted order.
        return finalised_result(query, fact, stats).to_relation(query.name)
    # Several aggregates ordered by one alias: combine on the fly and
    # sort the (small) aggregated result.
    unordered = replace(query, order_by=(), limit=None)
    result = flat_aggregate_output(unordered, fact, stats)
    rows = sort_rows(result.rows, result.schema, query.order_by)
    if query.limit is not None:
        rows = rows[: query.limit]
    return Relation.adopt(result.schema, rows, name=query.name or "result")


def flat_aggregate_output(
    query: Query,
    fact: Factorisation,
    stats: "agg.ExpressionStats | None" = None,
) -> Relation:
    """Fold the partial aggregates into one leaf per group (one γ),
    then enumerate the groups."""
    order = [key for key in query.order_by if key.attribute in query.group_by]
    fact, leaf = _aggregate_leaf(query, fact, stats, order)
    result = FactorisedResult(
        fact, query.output_schema, leaf, query.aggregates, order, query.limit
    )
    return result.to_relation(query.name)


def finalised_result(
    query: Query,
    fact: Factorisation,
    stats: "agg.ExpressionStats | None" = None,
) -> FactorisedResult:
    """Fold the partial aggregates into a single aggregate node at
    the end of the linearised group path."""
    fact, node_name = _aggregate_leaf(query, fact, stats)
    # Ordering: group-attribute keys are honoured by the linearised
    # path; an alias key requires promoting the aggregate node.
    aliases = {spec.alias for spec in query.aggregates}
    order = tuple(query.order_by)
    if any(key.attribute in aliases for key in order):
        if len(query.aggregates) > 1:
            raise QueryError(
                "ordering by an alias of a multi-aggregate query is "
                "not supported in factorised output"
            )
        spec = query.aggregates[0]
        fact = _final_leaf(fact, node_name, spec, query.group_by)
        fact = ops.rename(fact.ftree, node_name, spec.alias).run(fact)
        node_name = spec.alias
        keyed = [
            SortKey(key.attribute, key.descending)
            if key.attribute not in aliases
            else SortKey(node_name, key.descending)
            for key in order
        ]
        for child in restructure_for_order(fact.ftree, keyed):
            fact = ops.swap(fact.ftree, child).run(fact)
        order = tuple(keyed)
    return FactorisedResult(
        fact, query.output_schema, node_name, query.aggregates, order, query.limit
    )


def _aggregate_leaf(
    query: Query,
    fact: Factorisation,
    stats: "agg.ExpressionStats | None" = None,
    order: "Sequence[SortKey] | None" = None,
) -> tuple[Factorisation, str]:
    """The query's one aggregate leaf below its groups, and its name:
    γ folds the partial aggregates into it (:func:`_fold_partials`),
    the ungrouped leaf over zero rows holds SQL's empty components
    (COUNT 0, every other aggregate NULL) and HAVING keeps the groups
    whose leaf passes.

    The factorised result's groups are linearised in
    :func:`_group_path_order`.  The flat output's (``order``: its group
    keys) are folded where they stand when one union sees every partial
    and nothing reads a grouping attribute at the leaf; otherwise they
    are linearised in the order the enumerator expands them, so rows
    and row order stay those of the region as it stands.
    """
    group = query.group_by
    functions, bound = gamma_components(query.aggregates, group)
    path = None
    if order is not None and not (bound or query.having):
        path = _join_path(fact.ftree, group)
    if path is None:
        names = (
            _group_path_order(query)
            if order is None
            else [node.name for node in group_expansion(fact.ftree, group, order)[0]]
        )
        fact = _linearise_group(fact, names)
        path = _group_path(fact.ftree, names)
    fact, leaf = _fold_partials(fact, group, path, functions, stats, bound)
    if not group and not fact.roots[0].values:
        empty = agg.empty_aggregate_components(functions)
        fact = Factorisation(fact.ftree, [CUnion([empty], ())])
    for condition in query.having:
        if condition.target in group:
            # HAVING over a grouping attribute is a plain selection.
            fact = ops.select(
                fact.ftree, Comparison(condition.target, condition.op, condition.value)
            ).run(fact)
            continue
        spec = next(s for s in query.aggregates if s.alias == condition.target)
        # SQL NULL semantics: a None aggregate satisfies no condition.
        fact = _on_leaf(
            fact,
            leaf,
            spec,
            group,
            lambda unions, finals: splice_level(
                unions,
                live=[
                    final is not None and bool(condition.test(final))
                    for final in finals
                ],
            ),
        )
    return fact, leaf


def _spj_output(
    mode: str, query: Query, fact: Factorisation, merged: str | None = None
):
    """Flat or factorised SPJ output."""
    computed = query.computed
    computed_aliases = {column.alias for column in computed}
    kept = (
        set(query.projection)
        if query.projection is not None
        else set(query.group_by) or None
    )
    if kept is not None:
        kept |= {
            key.attribute
            for key in query.order_by
            if key.attribute not in computed_aliases
        }
        for column in computed:
            kept |= set(column.source_attributes)
        if not kept:
            # Attribute-free output: every computed column is
            # constant, so set semantics yield at most one row.
            row = tuple(c.expression.evaluate({}) for c in computed)
            return Relation(
                [c.alias for c in computed],
                [] if fact.is_empty() else [row],
                name=query.name or "result",
            )
        fact = _project_to(fact, kept)
    alias_keys = any(key.attribute in computed_aliases for key in query.order_by)
    if mode == "factorised":
        if alias_keys:
            raise QueryError(
                "ordering by a computed column is not supported in "
                "factorised output; use the flat fdb engine instead"
            )
        schema = (
            tuple(query.projection)
            if query.projection is not None
            else tuple(fact.schema())
        ) + tuple(column.alias for column in computed)
        return FactorisedResult(
            fact, schema, order=query.order_by, limit=query.limit, computed=computed
        )
    # Ordering by a computed alias cannot ride the factorisation:
    # enumerate unordered, compute, sort the materialised rows.
    order = () if alias_keys else normalise_order(query.order_by)
    if order and merged is None and not supports_order(fact.ftree, order):
        for child in restructure_for_order(fact.ftree, order):
            fact = ops.swap(fact.ftree, child).run(fact)
    if query.projection is not None:
        base_schema = list(query.projection)
    elif merged is not None:
        base_schema = ops.swap(fact.ftree, merged).tree.attribute_names()
    else:
        base_schema = fact.schema()
    out_schema = base_schema + [c.alias for c in computed]
    rows: Iterable[tuple]
    if computed:
        rows = chain.from_iterable(_computed_blocks(fact, order, base_schema, computed))
    else:
        rows = chain.from_iterable(iter_blocks(fact, order, base_schema))
    if alias_keys:
        rows = sort_rows(rows, out_schema, query.order_by)
    if query.limit is not None:
        rows = islice(rows, query.limit)
    return Relation.adopt(out_schema, _drain(rows), name=query.name or "result")


def _component(spec: AggregateSpec) -> tuple:
    """The γ component holding ``spec``'s value whole: the one place a
    COUNT — ``COUNT(price)`` included — becomes ``("count", None)``."""
    if spec.function == "count":
        return ("count", None)
    return (spec.function, spec.attribute)


def _on_leaf(
    fact: Factorisation,
    node_name: str,
    spec: AggregateSpec,
    group: Sequence[str],
    apply: Callable[[list, list], Sequence[CUnion]],
    tree: "FTree | None" = None,
) -> Factorisation:
    """``apply(unions, finals)`` at the aggregate leaf's level, ``finals``
    being ``spec``'s final value of each entry: HAVING filters on it,
    ORDER BY its alias sorts on it.  The grouping attributes it reads
    are ancestors of the leaf (the end of the group path), so their
    values come with each entry."""
    leaf = fact.ftree.node(node_name)
    reads = [g for g in group if g in spec.source_attributes]
    finish = finaliser((spec,), leaf.aggregate.functions, reads)
    above = [node.all_names for node in reversed(fact.ftree.ancestors(leaf))]
    depths = [next(d for d, names in enumerate(above) if g in names) for g in reads]

    def kernel(_: FNode, unions: list, contexts: "list | None" = None):
        groups = [list(map(itemgetter(d), contexts)) for d in depths]
        (finals,) = finish(level_values(unions), groups)
        return apply(unions, finals)

    root_index, steps = fact.ftree.path_to(node_name)
    return map_cunion_level(
        fact, root_index, steps, kernel, tree or fact.ftree, bool(reads)
    )


def _final_leaf(
    fact: Factorisation, node_name: str, spec: AggregateSpec, group
) -> Factorisation:
    """The aggregate leaf holding ``spec``'s final value — what ORDER BY
    its alias sorts on — in place of the components it is made of."""
    node = fact.ftree.node(node_name)
    own = (_component(spec),)
    if node.aggregate.functions == own:
        return fact
    aggregate = AggregateAttribute(own, node.aggregate.over, node_name)
    final = FNode(aggregate, (), node.keys)

    def leaves(unions: list, finals: list) -> list:
        return cut_level(level_bounds(unions), [(value,) for value in finals])

    tree = fact.ftree.replace_node(node_name, lambda _: [final])
    return _on_leaf(fact, node_name, spec, group, leaves, tree)


def _group_path_order(query: Query) -> list[str]:
    """Order of group attributes along the linearised result path.

    Order-by attributes (that are group attributes) come first, in
    order-by order; the rest follow in group-by order.
    """
    group = query.group_by
    ordered = [key.attribute for key in query.order_by if key.attribute in group]
    for attribute in group:
        if attribute not in ordered:
            ordered.append(attribute)
    return ordered


def _linearise_group(fact: Factorisation, group_order: list[str]) -> Factorisation:
    """Make the group-by region a single path in the given order.

    For each attribute in turn: swap it upward until its parent is its
    path predecessor.  When the ascent is blocked — the attribute sits
    in a sibling branch of the path, or in a different tree of the
    forest — the independent fragment is *nested* below the path
    instead (sharing, not copying, the fragment), which is exactly the
    cross-product structure the result relation requires.
    """
    for index, name in enumerate(group_order):
        path_rank = {g: r for r, g in enumerate(group_order[:index])}
        guard = 0
        while True:
            guard += 1
            if guard > 10_000:
                raise QueryError("group linearisation did not converge")
            node = fact.ftree.node(name)
            parent = fact.ftree.parent(node)
            if index == 0:
                if parent is None:
                    break
                fact = ops.swap(fact.ftree, name).run(fact)
                continue
            predecessor = group_order[index - 1]
            if parent is not None and predecessor in set(parent.all_names):
                break
            if parent is None:
                # Root of another tree: hang it below the predecessor.
                fact = ops.nest_root_under(fact.ftree, name, predecessor).run(fact)
                break
            parent_path = [g for g in parent.all_names if g in path_rank]
            if parent_path:
                # Sibling branch of the path: hop below the next path
                # attribute instead of swapping above an earlier one.
                rank = path_rank[parent_path[0]]
                fact = ops.nest_under(fact.ftree, name, group_order[rank + 1]).run(fact)
                continue
            fact = ops.swap(fact.ftree, name).run(fact)
    return fact


def _group_path(tree: FTree, group: Sequence[str]) -> list[FNode]:
    """The linearised group region: its root and each node's group child."""
    members = set(group)
    level = [n for n in tree.roots if members.intersection(n.all_names)]
    if len(level) > 1:
        raise QueryError("group region is not linearised")
    path: list[FNode] = []
    while level:
        path.append(level[0])
        level = [c for c in level[0].children if members.intersection(c.all_names)]
    return path


def _join_path(tree: FTree, group: Sequence[str]) -> list[FNode] | None:
    """The chain of group nodes down to the deepest one that partial
    aggregates hang below; ``None`` when they hang below several
    branches of the group region, so that no one union sees them all."""
    members = set(group)
    joins = [
        node
        for node in tree.nodes()
        if members.intersection(node.all_names)
        and not all(members.intersection(c.all_names) for c in node.children)
    ]
    if not joins:
        return []
    if not all(tree.is_ancestor(a, b) for a, b in zip(joins, joins[1:])):
        return None
    return tree.ancestors(joins[-1])[::-1] + [joins[-1]]


@kernels.timed("group_output")
def _fold_partials(
    fact: Factorisation,
    group: Sequence[str],
    path: Sequence[FNode],
    functions: Sequence[tuple],
    stats: "agg.ExpressionStats | None" = None,
    bound: bool = False,
) -> tuple[Factorisation, str]:
    """Fold the partial aggregates below the group region into one leaf.

    ``path`` is a chain of group nodes from a root down; every fragment
    that is not a group node hangs off it or is a root of its own.  The
    output stage's γ is the f-plan's: the fragments are nested (shared
    by reference, never copied) down to the node where the last of them
    joins the path, one γ there combines them per union — a column
    pass over all its entries, dropping the groups left without tuples
    — and the resulting leaf is nested on to the end of ``path``, since
    the aggregate depends on every attribute of the path.  Group nodes
    off the path stay as they are.  With ``bound`` (a component reads
    grouping attributes jointly with others) the γ runs at the end of
    ``path``, where each group's values are those of the entries above.
    """
    members = set(group)

    def partials(nodes: Iterable[FNode]) -> list[str]:
        return [n.name for n in nodes if not members.intersection(n.all_names)]

    names = [node.name for node in path]
    loose = partials(fact.ftree.roots)
    hook = max((d for d, n in enumerate(path) if partials(n.children)), default=-1)
    if bound and (hook >= 0 or loose):
        hook = len(path) - 1
    name = fresh_aggregate_name("final")
    key = f"__dep_final_{name}"
    if hook < 0 and not loose:
        # Nothing hangs below the groups: each is one tuple, and every
        # component is a count (grouping attributes are read off rows).
        aggregate = AggregateAttribute(tuple(functions), frozenset(), name)
        node = FNode(aggregate, (), {key})
        unit = CUnion([(1,) * len(functions)], ())
        fact = ops.product(fact, Factorisation(FTree([node]), [unit]))
    else:
        if hook >= 0:
            for root in loose:
                fact = ops.nest_root_under(fact.ftree, root, names[hook]).run(fact)
            for depth in range(hook):
                for partial in partials(fact.ftree.node(names[depth]).children):
                    fact = ops.nest_under(fact.ftree, partial, names[depth + 1]).run(fact)
            loose = partials(fact.ftree.node(names[hook]).children)
        parent = names[hook] if hook >= 0 else None
        fact = ops.aggregate(
            fact.ftree, parent, loose, functions, name, stats, bound
        ).run(fact)
    if hook < 0 and path:
        fact = ops.nest_root_under(fact.ftree, name, names[-1]).run(fact)
    for depth in range(hook, len(path) - 1) if hook >= 0 else ():
        fact = ops.nest_under(fact.ftree, name, names[depth + 1]).run(fact)
    # One shared key keeps the path a path under later swaps.
    tied = set(names) | {name}
    tree = fact.ftree.map_nodes(
        lambda n: n.with_keys(n.keys | {key}) if n.name in tied else n
    )
    return Factorisation(tree, fact.roots), name


def _project_to(fact: Factorisation, kept: set[str]) -> Factorisation:
    """Remove every attribute outside ``kept`` (projection, set semantics).

    Unneeded leaves are removed directly.  An unneeded *internal* node is
    sunk by promoting one of its children; picking the deepest unneeded
    node guarantees its children are all needed, so its depth strictly
    grows until it becomes a removable leaf (termination).
    """
    guard = 0
    while True:
        guard += 1
        if guard > 100_000:
            raise QueryError("projection did not converge")
        deepest: FNode | None = None
        deepest_depth = -1
        acted = False
        for node in fact.ftree.nodes():
            if node.is_aggregate:
                continue
            extra = [a for a in node.attributes if a not in kept]
            if not extra:
                continue
            if len(node.attributes) > len(extra):
                # Mixed class: drop the unneeded names only (free).
                for attribute in extra:
                    fact = ops.remove_class_attribute(fact.ftree, attribute).run(fact)
                acted = True
                break
            if not node.children:
                fact = ops.remove_leaf(fact.ftree, node.name).run(fact)
                acted = True
                break
            depth = fact.ftree.depth(node)
            if depth > deepest_depth:
                deepest, deepest_depth = node, depth
        if acted:
            continue
        if deepest is None:
            return fact
        fact = ops.swap(fact.ftree, deepest.children[0].name).run(fact)
