"""F-plans: sequences of operators compiled from a query (Section 5).

An f-plan step names one operator application; the executor replays the
steps against both layers (tree-only for the optimiser's simulation,
full factorisation for evaluation) and records the intermediate f-trees
and representation sizes so experiments can report where time goes.
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

    def apply_tree(self, ftree: FTree) -> FTree:
        raise NotImplementedError

    def apply(self, fact: Factorisation) -> Factorisation:
        raise NotImplementedError


@dataclass(frozen=True)
class SwapStep(Step):
    """χ: promote ``child`` above its parent."""

    child: str

    def apply_tree(self, ftree: FTree) -> FTree:
        return ops.swap_tree(ftree, self.child)

    def apply(self, fact: Factorisation) -> Factorisation:
        return ops.swap(fact, self.child)

    def __str__(self) -> str:
        return f"χ↑{self.child}"


@dataclass(frozen=True)
class MergeStep(Step):
    """Selection A=B for sibling nodes."""

    left: str
    right: str

    def apply_tree(self, ftree: FTree) -> FTree:
        return ops.merge_tree(ftree, self.left, self.right)

    def apply(self, fact: Factorisation) -> Factorisation:
        return ops.merge_siblings(fact, self.left, self.right)

    def __str__(self) -> str:
        return f"merge({self.left}={self.right})"


@dataclass(frozen=True)
class AbsorbStep(Step):
    """Selection A=B when ``descendant`` lies below ``ancestor``."""

    ancestor: str
    descendant: str

    def apply_tree(self, ftree: FTree) -> FTree:
        return ops.absorb_tree(ftree, self.ancestor, self.descendant)

    def apply(self, fact: Factorisation) -> Factorisation:
        return ops.absorb(fact, self.ancestor, self.descendant)

    def __str__(self) -> str:
        return f"absorb({self.ancestor}={self.descendant})"


@dataclass(frozen=True)
class SelectStep(Step):
    """Constant selection σ_{AθC}."""

    condition: Comparison

    def apply_tree(self, ftree: FTree) -> FTree:
        return ftree  # shape unchanged

    def apply(self, fact: Factorisation) -> Factorisation:
        return ops.select_constant(fact, self.condition)

    def __str__(self) -> str:
        return f"σ[{self.condition}]"


@dataclass(frozen=True)
class AggregateStep(Step):
    """γ_F(U): aggregate sibling subtrees into one aggregate node."""

    parent: str | None
    children: tuple[str, ...]
    functions: tuple[tuple[str, str | None], ...]
    name: str

    def apply_tree(self, ftree: FTree) -> FTree:
        tree, _ = ops.aggregate_tree(
            ftree, self.parent, self.children, self.functions, self.name
        )
        return tree

    def apply(self, fact: Factorisation) -> Factorisation:
        return ops.apply_aggregation(
            fact, self.parent, self.children, self.functions, self.name
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

    def apply_tree(self, ftree: FTree) -> FTree:
        # rename is implemented on factorisations; tree-only callers can
        # apply it through a zero-fragment factorisation.
        return ops.rename_tree(ftree, self.old, self.new)

    def apply(self, fact: Factorisation) -> Factorisation:
        return ops.rename(fact, self.old, self.new)

    def __str__(self) -> str:
        return f"ρ[{self.old}→{self.new}]"


@dataclass(frozen=True)
class RemoveLeafStep(Step):
    """Projection step: drop a leaf attribute."""

    name: str

    def apply_tree(self, ftree: FTree) -> FTree:
        return ops.remove_leaf_tree(ftree, self.name)

    def apply(self, fact: Factorisation) -> Factorisation:
        return ops.remove_leaf(fact, self.name)

    def __str__(self) -> str:
        return f"π∖{self.name}"


@dataclass
class ExecutionTrace:
    """Sizes, trees, and per-step wall time recorded while executing.

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
    trees: list[FTree] = field(default_factory=list)
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
    """An executable sequence of f-plan steps."""

    def __init__(self, steps: Sequence[Step]) -> None:
        self.steps: tuple[Step, ...] = tuple(steps)

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def __str__(self) -> str:
        return " ; ".join(str(step) for step in self.steps) or "(no-op)"

    def simulate(self, ftree: FTree) -> list[FTree]:
        """Tree-level replay: the sequence of intermediate f-trees."""
        trees = [ftree]
        for step in self.steps:
            trees.append(step.apply_tree(trees[-1]))
        return trees

    def execute(
        self, fact: Factorisation, trace: ExecutionTrace | None = None
    ) -> Factorisation:
        """Apply every step to the factorisation, optionally tracing."""
        current = fact
        if trace is None:
            for step in self.steps:
                current = step.apply(current)
            return current
        # One child span per step under ``engine.run`` (never a root of
        # its own); the spans' no-op fast path when observability is off.
        nested = STATE.enabled and spans.current_span() is not None
        for step in self.steps:
            with spans.span(type(step).__name__) if nested else nullcontext() as span:
                started = clock.now()
                current = step.apply(current)
                trace.seconds.append(clock.now() - started)
            trace.steps.append(str(step))
            singletons, resident = current.size_info()
            trace.sizes.append(singletons)
            trace.bytes.append(resident)
            trace.unions.append(current.covered)
            trace.trees.append(current.ftree)
            if span is not None:
                span.attributes.update(
                    singletons=singletons, unions=trace.unions[-1]
                )
        return current
