"""F-plans: sequences of operators compiled from a query (Section 5).

An f-plan step names one operator application.  It is placed once on
its input f-tree (:meth:`Step.place`, giving the output tree, the level
and the kernel's arguments; :mod:`repro.core.operators`): the
optimiser's search reads the placed trees, and a compiled plan keeps
the placements, so each run replays them on the current data
(:meth:`FPlan.execute`) and records per-step sizes and wall time so
experiments can report where time goes.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Sequence

from repro.core import operators as ops
from repro.core.frep import Factorisation
from repro.core.ftree import FTree
from repro.obs import clock, spans
from repro.obs.state import STATE
from repro.query import Comparison


class FPlanError(ValueError):
    """Raised when a plan step cannot be applied."""


@dataclass(frozen=True)
class Step:
    """Base class for f-plan steps."""

    def place(self, ftree: FTree) -> ops.Placement:
        """The step's operator placed on ``ftree`` (see
        :class:`repro.core.operators.Placement`)."""
        raise NotImplementedError


@dataclass(frozen=True)
class SwapStep(Step):
    """χ: promote ``child`` above its parent."""

    child: str

    def place(self, ftree: FTree) -> ops.Placement:
        return ops.swap(ftree, self.child)

    def __str__(self) -> str:
        return f"χ↑{self.child}"


@dataclass(frozen=True)
class MergeStep(Step):
    """Selection A=B for sibling nodes."""

    left: str
    right: str

    def place(self, ftree: FTree) -> ops.Placement:
        return ops.merge(ftree, self.left, self.right)

    def __str__(self) -> str:
        return f"merge({self.left}={self.right})"


@dataclass(frozen=True)
class AbsorbStep(Step):
    """Selection A=B when ``descendant`` lies below ``ancestor``."""

    ancestor: str
    descendant: str

    def place(self, ftree: FTree) -> ops.Placement:
        return ops.absorb(ftree, self.ancestor, self.descendant)

    def __str__(self) -> str:
        return f"absorb({self.ancestor}={self.descendant})"


@dataclass(frozen=True)
class SelectStep(Step):
    """Constant selection σ_{AθC}; ``more`` are further constant
    comparisons on A's node, tested in the same traversal."""

    condition: Comparison
    more: tuple[Comparison, ...] = ()

    @property
    def conditions(self) -> tuple[Comparison, ...]:
        return (self.condition, *self.more)

    def place(self, ftree: FTree) -> ops.Placement:
        return ops.select(ftree, *self.conditions)

    def __str__(self) -> str:
        return f"σ[{' ∧ '.join(map(str, self.conditions))}]"


def select_steps(comparisons: Sequence[Comparison], ftree: FTree) -> list[SelectStep]:
    """The selections of ``comparisons`` over ``ftree``: one step per
    node that constant comparisons read, so that a range on one
    attribute cuts its level once, and one per expression comparison."""
    steps: dict = {}
    for comparison in comparisons:
        key = (
            id(comparison)
            if comparison.is_expression
            else ftree.node(comparison.attribute).name
        )
        steps.setdefault(key, []).append(comparison)
    return [SelectStep(first, tuple(more)) for first, *more in steps.values()]


@dataclass(frozen=True)
class AggregateStep(Step):
    """γ_F(U): aggregate sibling subtrees into one aggregate node."""

    parent: str | None
    children: tuple[str, ...]
    functions: tuple[tuple[str, str | None], ...]
    name: str

    def place(self, ftree: FTree) -> ops.Placement:
        return ops.aggregate(
            ftree, self.parent, self.children, self.functions, self.name
        )

    def __str__(self) -> str:
        functions = ",".join(
            f"{fn}({attr})" if attr else fn for fn, attr in self.functions
        )
        return f"γ[{functions}]({', '.join(self.children)})→{self.name}"


@dataclass(frozen=True)
class RenameStep(Step):
    """Rename an attribute (constant time)."""

    old: str
    new: str

    def place(self, ftree: FTree) -> ops.Placement:
        return ops.rename(ftree, self.old, self.new)

    def __str__(self) -> str:
        return f"ρ[{self.old}→{self.new}]"


@dataclass(frozen=True)
class RemoveLeafStep(Step):
    """Projection step: drop a leaf attribute."""

    name: str

    def place(self, ftree: FTree) -> ops.Placement:
        return ops.remove_leaf(ftree, self.name)

    def __str__(self) -> str:
        return f"π∖{self.name}"


@dataclass
class ExecutionTrace:
    """Sizes and per-step wall time recorded while executing.

    ``seconds[i]`` is the wall-clock cost of applying ``steps[i]``
    (``sizes[i]`` the singleton count of its output factorisation,
    ``bytes[i]`` the resident container bytes of the same output, both
    from one :meth:`Factorisation.size_info` walk; ``unions[i]`` the
    number of unions the step's kernel covered — its f-tree level) —
    the EXPLAIN ANALYZE evidence surfaced through ``Result.explain()``,
    which sets each step's estimated size (``provenance``) beside the
    observed one.
    ``expression_stats`` (a
    :class:`repro.core.aggregates.ExpressionStats`, when the engine
    evaluated expression aggregates) records whether evaluation stayed
    factorisation-native or fell back to localised flattening.
    """

    steps: list[str] = field(default_factory=list)
    sizes: list[int] = field(default_factory=list)
    bytes: list[int] = field(default_factory=list)
    unions: list[int] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    expression_stats: object | None = None
    # Optimiser provenance of the executed plan (strategy, estimated
    # size, statistics sources) — set by the engine so Result.explain
    # can report estimated vs. observed cost.
    provenance: "dict | None" = None
    # Restructuring done while enumerating rather than by a step (the
    # engine's on-demand χ, or why it stayed a step).
    enumeration: str | None = None

    def describe(self) -> str:
        lines = ["f-plan execution:"]

        def padded(column: list) -> list:
            return list(column) + [None] * (len(self.steps) - len(column))

        # The optimiser estimates the f-plan's steps; the constant
        # selections run before them carry no estimate.
        estimates = list((self.provenance or {}).get("estimated_sizes", ()))
        estimates = [None] * (len(self.steps) - len(estimates)) + estimates
        for step, size, covered, estimate, footprint, spent in zip(
            self.steps,
            self.sizes,
            padded(self.unions),
            estimates,
            padded(self.bytes),
            padded(self.seconds),
        ):
            detail = f"size={size}"
            if estimate is not None:
                detail += f" est={estimate:.0f}"
            if covered is not None:
                detail += f" unions={covered}"
            if footprint is not None:
                detail += f"  {footprint}B"
            if spent is not None:
                detail += f"  {spent * 1000.0:8.3f} ms"
            lines.append(f"  {step:<40} {detail}")
        if self.enumeration is not None:
            lines.append(f"  enumerate: {self.enumeration}")
        return "\n".join(lines)


class FPlan:
    """An executable sequence of f-plan steps.

    ``fallback`` says why an optimiser returned this plan in place of
    the one it searched for (``None``: it did not fall back).
    ``placed`` are the steps placed on the plan's input f-tree
    (:meth:`place`) once it is compiled; ``None`` before.
    """

    fallback: "str | None" = None

    def __init__(
        self, steps: Sequence[Step], placed: "Sequence[ops.Placement] | None" = None
    ) -> None:
        self.steps: tuple[Step, ...] = tuple(steps)
        self.placed = None if placed is None else tuple(placed)

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def __str__(self) -> str:
        return " ; ".join(str(step) for step in self.steps) or "(no-op)"

    def place(self, ftree: FTree) -> list[ops.Placement]:
        """Every step placed on the output f-tree of the one before,
        the first on ``ftree``: the plan's trees without its data."""
        placed = []
        for step in self.steps:
            placed.append(step.place(ftree))
            ftree = placed[-1].tree
        return placed

    def execute(
        self, fact: Factorisation, trace: ExecutionTrace | None = None
    ) -> Factorisation:
        """Run every step on the factorisation, optionally tracing: a
        compiled plan replays its placements, which ``fact``'s f-tree
        must be the input tree of; any other plan is placed here."""
        placed = self.placed
        if placed is None:
            placed = self.place(fact.ftree)
        current = fact
        if trace is None:
            for placement in placed:
                current = placement.run(current)
            return current
        # One child span per step under ``engine.run`` (never a root of
        # its own); the spans' no-op fast path when observability is off.
        nested = STATE.enabled and spans.current_span() is not None
        for step, placement in zip(self.steps, placed):
            with spans.span(type(step).__name__) if nested else nullcontext() as span:
                started = clock.now()
                current = placement.run(current)
                trace.seconds.append(clock.now() - started)
            trace.steps.append(str(step))
            singletons, resident = current.size_info()
            trace.sizes.append(singletons)
            trace.bytes.append(resident)
            trace.unions.append(current.covered)
            if span is not None:
                span.attributes.update(
                    singletons=singletons, unions=trace.unions[-1]
                )
        return current
