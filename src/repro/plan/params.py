"""Parameter discovery and binding for prepared queries.

A :class:`repro.expr.Param` may appear

- as the *value* of a constant selection (``where("price", ">",
  param("floor"))``, SQL ``WHERE price > :floor``),
- inside the expression on the *left* of a selection
  (``price * :rate > 100`` — tested on the owning input's factorisation),
- as a HAVING comparison value, and
- inside a computed output column (``SELECT price * :rate AS gross``).

Aggregate arguments are deliberately excluded: the optimiser bakes the
aggregate's γ components into the compiled f-plan, so a value that only
arrives at run time could invalidate the plan itself.  Move the
parameter out of the aggregate (filter first, or scale the aggregated
result) — :func:`collect_params` rejects the placement with exactly
that advice.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Mapping

from repro.expr import BinOp, Const, Expr, Neg, Param
from repro.query import Comparison, ComputedColumn, Having, Query, QueryError


class ParameterError(QueryError):
    """Raised for missing, unknown, or ill-placed query parameters."""


def _expr_params(expr: "Expr | str | None") -> tuple[str, ...]:
    if isinstance(expr, Expr):
        return expr.parameters()
    return ()


def collect_params(query: Query) -> tuple[str, ...]:
    """Parameter names of ``query``, in clause order (SELECT list,
    WHERE, HAVING), deduplicated — the order positional arguments of
    :meth:`repro.plan.prepared.PreparedQuery.run` bind in.

    Raises :class:`ParameterError` for parameters in aggregate
    arguments (see the module docstring).
    """
    names: list[str] = []

    def want(found: tuple[str, ...]) -> None:
        for name in found:
            if name not in names:
                names.append(name)

    for spec in query.aggregates:
        inside = _expr_params(spec.attribute)
        if inside:
            raise ParameterError(
                f"parameter :{inside[0]} appears inside the aggregate "
                f"argument of {spec.alias!r}; aggregate arguments are "
                "compiled into the plan, so they cannot be parameterised "
                "— filter the input or scale the aggregated result instead"
            )
    def check_value(value, context: str) -> None:
        # The value slot of a condition holds a literal or a bare
        # Param; an expression wrapping a Param there would silently
        # escape binding, so reject it with the canonical rewrite.
        if isinstance(value, Expr) and not isinstance(value, Param):
            inside = _expr_params(value)
            if inside:
                raise ParameterError(
                    f"parameter :{inside[0]} is nested inside an "
                    f"arithmetic {context} value; conditions compare "
                    "against a literal or a bare parameter — move the "
                    "arithmetic to the left side instead "
                    "(e.g. price - 1 > :floor)"
                )

    for column in query.computed:
        want(_expr_params(column.expression))
    for condition in query.comparisons:
        want(_expr_params(condition.attribute))
        check_value(condition.value, "comparison")
        if isinstance(condition.value, Param):
            want((condition.value.name,))
    for condition in query.having:
        check_value(condition.value, "HAVING")
        if isinstance(condition.value, Param):
            want((condition.value.name,))
    return tuple(names)


def _substitute(expr: Expr, values: Mapping[str, Any]) -> Expr:
    """Replace every bound ``Param`` leaf with a ``Const``."""
    if isinstance(expr, Param):
        value = values[expr.name]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ParameterError(
                f"parameter :{expr.name} is used in arithmetic and must "
                f"bind to a number, got {value!r}"
            )
        return Const(value)
    if isinstance(expr, BinOp):
        return BinOp(
            expr.op,
            _substitute(expr.left, values),
            _substitute(expr.right, values),
        )
    if isinstance(expr, Neg):
        return Neg(_substitute(expr.operand, values))
    return expr


def bind_params(query: Query, values: Mapping[str, Any]) -> Query:
    """A copy of ``query`` with every parameter replaced by its value.

    ``values`` must bind exactly the parameters the query declares:
    missing and unknown names both raise :class:`ParameterError` (the
    latter catches typos that would otherwise silently leave a
    placeholder unbound).
    """
    declared = collect_params(query)
    missing = [name for name in declared if name not in values]
    if missing:
        raise ParameterError(
            f"missing values for parameters: {', '.join(':' + n for n in missing)}"
        )
    unknown = [name for name in values if name not in declared]
    if unknown:
        raise ParameterError(
            f"unknown parameters: {', '.join(':' + n for n in unknown)}; "
            f"the query declares: "
            f"{', '.join(':' + n for n in declared) or '(none)'}"
        )
    if not declared:
        return query

    def bind_target(target):
        if isinstance(target, Expr) and target.parameters():
            return _substitute(target, values)
        return target

    comparisons = tuple(
        Comparison(
            bind_target(condition.attribute),
            condition.op,
            values[condition.value.name]
            if isinstance(condition.value, Param)
            else condition.value,
        )
        for condition in query.comparisons
    )
    having = tuple(
        Having(
            condition.target,
            condition.op,
            values[condition.value.name]
            if isinstance(condition.value, Param)
            else condition.value,
        )
        for condition in query.having
    )
    computed = tuple(
        ComputedColumn(bind_target(column.expression), column.alias)
        for column in query.computed
    )
    return replace(
        query, comparisons=comparisons, having=having, computed=computed
    )
