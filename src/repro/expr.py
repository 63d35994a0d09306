"""First-class scalar expressions over attributes (Section 3.2).

The paper's aggregation operators are not restricted to bare
attributes: ``SUM(price * quantity)`` is evaluated directly on the
factorisation by distributing sums of products over independent
branches.  This module provides the engine-neutral expression AST the
whole query surface shares — the :class:`~repro.query.Query` AST,
:class:`~repro.api.builder.QueryBuilder`, the SQL front-end and every
registered engine:

- :class:`Attr` — an attribute reference (``col("price")``);
- :class:`Const` — a numeric literal;
- :class:`BinOp` — ``+ - * /`` (division is always *true* division;
  the SQL generator renders it so SQLite agrees);
- :class:`Neg` — unary negation;
- :class:`Param` — a named placeholder (``param("x")``, SQL ``:x`` or
  ``?``), bound to a concrete value when a prepared query runs.

Expressions are immutable, hashable, and compose with Python operator
overloading::

    from repro import col

    revenue = col("price") * col("qty")
    discounted = -(col("price") - 2) / 4

:func:`linearise` normalises an expression into a sum of product terms
(``Σ cᵢ · Πⱼ fᵢⱼ``), the form the factorised evaluators of
:mod:`repro.core.aggregates` distribute over independent branches per
Section 3.2: a sum commutes with the union operator, and a product of
factors living in independent subtrees is the product of their partial
sums.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Mapping


class ExprError(ValueError):
    """Raised for malformed scalar expressions."""


class UnboundParamError(ExprError):
    """Raised when an unbound :class:`Param` is evaluated."""


_BINARY_OPS = ("+", "-", "*", "/")
#: Rendering precedence: higher binds tighter.
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


class Expr:
    """Base class of the scalar-expression AST.

    Subclasses are frozen dataclasses; arithmetic on any two
    expressions (or an expression and a plain number / attribute name)
    builds a new tree.
    """

    __slots__ = ()

    # ------------------------------------------------------------------
    # Operator overloading
    # ------------------------------------------------------------------
    def __add__(self, other: Any) -> "BinOp":
        return BinOp("+", self, as_expr(other))

    def __radd__(self, other: Any) -> "BinOp":
        return BinOp("+", as_expr(other), self)

    def __sub__(self, other: Any) -> "BinOp":
        return BinOp("-", self, as_expr(other))

    def __rsub__(self, other: Any) -> "BinOp":
        return BinOp("-", as_expr(other), self)

    def __mul__(self, other: Any) -> "BinOp":
        return BinOp("*", self, as_expr(other))

    def __rmul__(self, other: Any) -> "BinOp":
        return BinOp("*", as_expr(other), self)

    def __truediv__(self, other: Any) -> "BinOp":
        return BinOp("/", self, as_expr(other))

    def __rtruediv__(self, other: Any) -> "BinOp":
        return BinOp("/", as_expr(other), self)

    def __neg__(self) -> "Neg":
        return Neg(self)

    def __pos__(self) -> "Expr":
        return self

    # ------------------------------------------------------------------
    # Interface
    # ------------------------------------------------------------------
    def attributes(self) -> tuple[str, ...]:
        """Referenced attribute names, unique, in first-reference order."""
        out: list[str] = []
        self._collect(out)
        return tuple(out)

    def parameters(self) -> tuple[str, ...]:
        """Referenced parameter names, unique, in first-reference order."""
        out: list[str] = []
        self._collect_params(out)
        return tuple(out)

    def _collect(self, out: list[str]) -> None:
        raise NotImplementedError

    def _collect_params(self, out: list[str]) -> None:
        """Default: atoms reference no parameters."""

    def evaluate(self, binding: Mapping[str, Any]) -> Any:
        """Evaluate against a row binding (attribute name → value)."""
        raise NotImplementedError

    def sql(self) -> str:
        """SQL text of the expression (parenthesised by precedence)."""
        return self._render(sql=True)

    def _render(self, sql: bool = False) -> str:
        raise NotImplementedError

    def _precedence(self) -> int:
        return 9  # atoms never need parentheses

    @property
    def is_attribute(self) -> bool:
        """Whether this expression is a bare attribute reference."""
        return isinstance(self, Attr)

    def __str__(self) -> str:
        return self._render(sql=False)


@dataclass(frozen=True, eq=True, repr=False)
class Attr(Expr):
    """A reference to an attribute of the joined input relations."""

    name: str

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ExprError(f"attribute reference needs a name, got {self.name!r}")

    def _collect(self, out: list[str]) -> None:
        if self.name not in out:
            out.append(self.name)

    def evaluate(self, binding: Mapping[str, Any]) -> Any:
        try:
            return binding[self.name]
        except KeyError:
            raise ExprError(
                f"no value for attribute {self.name!r} in binding"
            ) from None

    def _render(self, sql: bool = False) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"col({self.name!r})"


@dataclass(frozen=True, eq=True, repr=False)
class Const(Expr):
    """A numeric literal."""

    value: Any

    def __post_init__(self) -> None:
        if isinstance(self.value, bool) or not isinstance(
            self.value, (int, float)
        ):
            raise ExprError(
                f"expression constants must be numbers, got {self.value!r}"
            )

    def _collect(self, out: list[str]) -> None:
        pass

    def evaluate(self, binding: Mapping[str, Any]) -> Any:
        return self.value

    def _render(self, sql: bool = False) -> str:
        return repr(self.value)

    def _precedence(self) -> int:
        # Negative literals render with a leading minus: parenthesise
        # like a unary negation so "a * -2" never prints as "a * -2"
        # ambiguity-free forms only matter below multiplicative level.
        return 9 if self.value >= 0 else 3

    def __repr__(self) -> str:
        return f"lit({self.value!r})"


@dataclass(frozen=True, eq=True, repr=False)
class BinOp(Expr):
    """A binary arithmetic node: ``left op right``."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in _BINARY_OPS:
            raise ExprError(f"unknown arithmetic operator {self.op!r}")
        if not isinstance(self.left, Expr) or not isinstance(self.right, Expr):
            raise ExprError("BinOp operands must be expressions")

    def _collect(self, out: list[str]) -> None:
        self.left._collect(out)
        self.right._collect(out)

    def _collect_params(self, out: list[str]) -> None:
        self.left._collect_params(out)
        self.right._collect_params(out)

    def evaluate(self, binding: Mapping[str, Any]) -> Any:
        left = self.left.evaluate(binding)
        right = self.right.evaluate(binding)
        try:
            if self.op == "+":
                return left + right
            if self.op == "-":
                return left - right
            if self.op == "*":
                return left * right
            return left / right  # true division in every engine
        except (TypeError, ZeroDivisionError) as error:
            raise ExprError(f"cannot evaluate {self}: {error}") from None

    def _precedence(self) -> int:
        return _PRECEDENCE[self.op]

    def _render(self, sql: bool = False) -> str:
        own = self._precedence()
        left = self.left._render(sql)
        if self.left._precedence() < own:
            left = f"({left})"
        right = self.right._render(sql)
        # -, / are left-associative: parenthesise equal-precedence rhs.
        if self.right._precedence() < own or (
            self.op in ("-", "/") and self.right._precedence() == own
        ):
            right = f"({right})"
        if sql and self.op == "/":
            # SQLite divides integers integrally; forcing a REAL
            # numerator keeps the generated SQL on true-division
            # semantics, matching every other engine.
            return f"1.0 * {left} / {right}"
        return f"{left} {self.op} {right}"

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(frozen=True, eq=True, repr=False)
class Neg(Expr):
    """Unary negation."""

    operand: Expr

    def __post_init__(self) -> None:
        if not isinstance(self.operand, Expr):
            raise ExprError("Neg operand must be an expression")

    def _collect(self, out: list[str]) -> None:
        self.operand._collect(out)

    def _collect_params(self, out: list[str]) -> None:
        self.operand._collect_params(out)

    def evaluate(self, binding: Mapping[str, Any]) -> Any:
        return -self.operand.evaluate(binding)

    def _precedence(self) -> int:
        return 3

    def _render(self, sql: bool = False) -> str:
        inner = self.operand._render(sql)
        if self.operand._precedence() < self._precedence():
            inner = f"({inner})"
        return f"-{inner}"

    def __repr__(self) -> str:
        return f"(-{self.operand!r})"


#: Parameter names are SQL named-placeholder identifiers, so the same
#: name works verbatim as ``:name`` in generated SQL (and as a key in
#: sqlite3's named-binding dictionary).
_PARAM_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


@dataclass(frozen=True, eq=True, repr=False)
class Param(Expr):
    """A named query parameter (the ``?``/``:name`` of prepared queries).

    Parameters are *structural* leaves: two queries differing only in
    the values bound to their parameters share one canonical form, so a
    single prepared plan serves every binding.  Evaluating an unbound
    parameter raises :class:`UnboundParamError` — binding happens in
    :func:`repro.plan.params.bind_params` before execution.
    """

    name: str

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not _PARAM_NAME.match(self.name):
            raise ExprError(
                f"parameter names must be identifiers "
                f"([A-Za-z_][A-Za-z0-9_]*), got {self.name!r}"
            )

    def _collect(self, out: list[str]) -> None:
        pass

    def _collect_params(self, out: list[str]) -> None:
        if self.name not in out:
            out.append(self.name)

    def evaluate(self, binding: Mapping[str, Any]) -> Any:
        raise UnboundParamError(
            f"parameter :{self.name} is unbound; run the prepared query "
            f"with a value for it (e.g. prepared.run({self.name}=...))"
        )

    def _render(self, sql: bool = False) -> str:
        return f":{self.name}"

    def __repr__(self) -> str:
        return f"param({self.name!r})"


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------
def col(name: str) -> Attr:
    """The public expression constructor: a reference to an attribute.

    ``col("price") * col("qty")`` builds the expression tree consumed
    by :meth:`QueryBuilder.sum` and friends.
    """
    return Attr(name)


def lit(value: Any) -> Const:
    """A numeric literal as an expression (rarely needed explicitly:
    plain numbers auto-promote inside arithmetic)."""
    return Const(value)


def param(name: str) -> Param:
    """A named query parameter: ``where("price", ">", param("floor"))``.

    The same placeholder is spelled ``:floor`` (or positionally ``?``)
    in SQL text.  Values are supplied when the prepared query runs.
    """
    return Param(name)


def as_expr(value: Any) -> Expr:
    """Promote a value to an expression.

    Expressions pass through; strings become attribute references
    (the back-compat path for the query AST); numbers become literals.
    """
    if isinstance(value, Expr):
        return value
    if isinstance(value, str):
        return Attr(value)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return Const(value)
    raise ExprError(
        f"cannot interpret {value!r} as a scalar expression; expected an "
        "expression (col(...)), an attribute name, or a number"
    )


# ---------------------------------------------------------------------------
# Linearisation: Σ cᵢ · Πⱼ fᵢⱼ normal form
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Term:
    """One product term of a linearised expression.

    ``factors`` are non-constant multiplicands — attribute references,
    or *opaque* sub-expressions a sum cannot distribute over (a
    quotient with a non-constant divisor).  The constant part is folded
    into ``coefficient``.
    """

    coefficient: Any
    factors: tuple[Expr, ...]

    def attributes(self) -> tuple[str, ...]:
        out: list[str] = []
        for factor in self.factors:
            for name in factor.attributes():
                if name not in out:
                    out.append(name)
        return tuple(out)

    def evaluate(self, binding: Mapping[str, Any]) -> Any:
        value = self.coefficient
        for factor in self.factors:
            value *= factor.evaluate(binding)
        return value


def linearise(expr: Expr) -> tuple[Term, ...]:
    """Expand an expression into a sum of product terms.

    Sums and differences distribute, products expand pairwise, unary
    minus and constants fold into coefficients, and a division by a
    constant becomes a coefficient scaling.  A quotient with a
    non-constant divisor stays a single opaque factor — the factorised
    evaluators then localise its evaluation to the fragment holding its
    attributes.
    """
    if isinstance(expr, Const):
        return (Term(expr.value, ()),)
    if isinstance(expr, Attr):
        return (Term(1, (expr,)),)
    if isinstance(expr, Param):
        # An unbound parameter is an opaque factor; evaluating it later
        # raises UnboundParamError with a helpful message.
        return (Term(1, (expr,)),)
    if isinstance(expr, Neg):
        return tuple(
            Term(-term.coefficient, term.factors)
            for term in linearise(expr.operand)
        )
    if isinstance(expr, BinOp):
        if expr.op == "+":
            return linearise(expr.left) + linearise(expr.right)
        if expr.op == "-":
            return linearise(expr.left) + tuple(
                Term(-term.coefficient, term.factors)
                for term in linearise(expr.right)
            )
        if expr.op == "*":
            return tuple(
                Term(
                    left.coefficient * right.coefficient,
                    left.factors + right.factors,
                )
                for left in linearise(expr.left)
                for right in linearise(expr.right)
            )
        # Division: scale by a constant divisor, else keep opaque.
        divisor = linearise(expr.right)
        if len(divisor) == 1 and not divisor[0].factors:
            if divisor[0].coefficient == 0:
                raise ExprError(f"division by zero in {expr}")
            return tuple(
                Term(term.coefficient / divisor[0].coefficient, term.factors)
                for term in linearise(expr.left)
            )
        return (Term(1, (expr,)),)
    raise ExprError(f"cannot linearise {expr!r}")


def simplify(expr: Expr) -> Expr:
    """Light normalisation used when re-importing generated SQL.

    Strips the unit factors the SQL generator inserts for SQLite's
    division semantics (``1.0 * a / b`` → ``a / b``) so a parse →
    compile → generate cycle is a fixed point.
    """
    if isinstance(expr, BinOp):
        left = simplify(expr.left)
        right = simplify(expr.right)
        if expr.op == "*" and left == Const(1.0):
            return right
        if expr.op == "*" and right == Const(1.0):
            return left
        return BinOp(expr.op, left, right)
    if isinstance(expr, Neg):
        inner = simplify(expr.operand)
        if isinstance(inner, Const):
            return Const(-inner.value)
        return Neg(inner)
    return expr
