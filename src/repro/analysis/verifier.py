"""Semantic verification of f-trees and f-plans.

The paper's guarantees hold only over well-formed inputs: f-trees must
satisfy the §2 normalisation invariants (the path constraint, key
closure, attribute partitioning), every f-plan operator has pre- and
post-conditions (§5), and constant-delay enumeration needs the
Theorem 1/2 shape conditions (§4).  This module makes each of those
invariants a machine-checkable rule producing a
:class:`repro.analysis.findings.Finding` that names the violation.

Rule catalogue (severity ``error`` unless noted):

======================== ==================================================
``ftree/path-constraint``  dependent nodes on different root-to-leaf paths
``ftree/key-closure``      an atomic node carrying no dependency keys
``ftree/aggregate-over``   a γ node's ``over`` set re-appears atomically
``ftree/schema-partition`` tree attributes do not partition the schema
``plan/unknown-node``      a step references an attribute not in the tree
``plan/swap-root``         χ applied to a root node
``plan/merge-not-siblings`` merge of nodes with different parents
``plan/absorb-not-ancestor`` absorb without a strict ancestor relation
``plan/aggregate-shape``   γ children not children of the named parent,
                           a stale function set, or an attribute clash
``plan/aggregate-kept``    γ aggregates away a group-by/kept attribute
``plan/aggregate-coupled`` one γ covers ≥ 2 coupled attributes
``plan/aggregate-protected`` γ covers an attribute that must stay atomic
``plan/remove-not-leaf``   projection of an internal node
``plan/rename-clash``      ρ to a name already present
``plan/step-failed``       the operator itself rejected the application
``plan/step-path-constraint`` a step broke the path constraint
``plan/grouping``          final tree misses Theorem 1 (*warning*: the
                           engine restructures at run time, losing the
                           constant-delay guarantee)
``plan/order-prefix``      final tree misses Theorem 2 (*warning*, same)
======================== ==================================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.analysis.findings import Finding
from repro.core.engine import FDBCompiled
from repro.core.enumerate import supports_grouping, supports_order
from repro.core.fplan import (
    AbsorbStep,
    AggregateStep,
    FPlan,
    FPlanError,
    MergeStep,
    RemoveLeafStep,
    RenameStep,
    SelectStep,
    Step,
    SwapStep,
)
from repro.core.ftree import FNode, FTree, FTreeError
from repro.query import Query, QueryError
from repro.relational.sort import normalise_order

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.optimizer import PlanContext
    from repro.database import Database

#: Aggregation components a γ step may carry: the partial functions the
#: evaluator knows how to combine.
GAMMA_FUNCTIONS = frozenset({"sum", "count", "min", "max"})


class PlanVerificationError(QueryError):
    """A query failed prepare-time verification (``verify=True``).

    Carries the structured diagnostics; the message lists each violated
    invariant by rule name so the failure is actionable without
    re-running the verifier.
    """

    def __init__(self, findings: Sequence[Finding]) -> None:
        self.findings: tuple[Finding, ...] = tuple(findings)
        details = "; ".join(f.describe() for f in self.findings)
        super().__init__(
            f"query failed plan verification with "
            f"{len(self.findings)} finding(s): {details}"
        )


# ---------------------------------------------------------------------------
# F-tree invariants (§2)
# ---------------------------------------------------------------------------
def verify_ftree(
    ftree: FTree,
    *,
    subject: str | None = None,
    schema: Sequence[str] | None = None,
) -> list[Finding]:
    """Check the §2 normalisation invariants of one f-tree.

    ``schema`` (when given, e.g. for a registered view) additionally
    checks attribute partitioning: the tree's attribute classes and
    aggregate labels must partition exactly the view's schema.
    """
    findings: list[Finding] = []
    nodes = list(ftree.nodes())

    # Path constraint (Proposition 1): nodes sharing a dependency key
    # must lie on one root-to-leaf path.
    for index, first in enumerate(nodes):
        for second in nodes[index + 1:]:
            if first.depends_on(second) and not ftree.on_same_path(
                first, second
            ):
                shared = ", ".join(sorted(first.keys & second.keys))
                findings.append(
                    Finding(
                        "ftree/path-constraint",
                        f"nodes {first.label()} and {second.label()} share "
                        f"dependency key(s) {{{shared}}} but lie on "
                        "different root-to-leaf paths",
                        subject=subject,
                    )
                )

    atomic = ftree.atomic_attributes()
    for node in nodes:
        # Key closure: an atomic node must belong to at least one
        # relation, else dependency tracking and IVM routing cannot
        # reach it.
        if node.aggregate is None and not node.keys:
            findings.append(
                Finding(
                    "ftree/key-closure",
                    f"atomic node {node.label()} carries no dependency "
                    "keys (belongs to no relation)",
                    subject=subject,
                )
            )
        # Aggregated-away attributes must not re-appear atomically:
        # the γ folded them into a value, so an atomic copy would
        # double-count.
        if node.aggregate is not None:
            clash = sorted(node.aggregate.over & atomic)
            if clash:
                findings.append(
                    Finding(
                        "ftree/aggregate-over",
                        f"aggregate node {node.label()} folded "
                        f"{{{', '.join(clash)}}} away, but the same "
                        "attribute(s) are still atomic in the tree",
                        subject=subject,
                    )
                )

    if schema is not None:
        names = {name for node in nodes for name in node.all_names}
        expected = set(schema)
        missing = sorted(expected - names)
        extra = sorted(names - expected)
        if missing or extra:
            parts = []
            if missing:
                parts.append(f"missing {{{', '.join(missing)}}}")
            if extra:
                parts.append(f"extra {{{', '.join(extra)}}}")
            findings.append(
                Finding(
                    "ftree/schema-partition",
                    "tree attributes do not partition the schema: "
                    + "; ".join(parts),
                    subject=subject,
                )
            )
    return findings


# ---------------------------------------------------------------------------
# F-plan operator conditions (§5)
# ---------------------------------------------------------------------------
def _covered_attributes(node: FNode) -> set[str]:
    """Everything a γ over ``node``'s subtree folds away — atomic
    attributes plus what inner aggregates already folded."""
    covered = set(node.subtree_atomic_attributes())
    for inner in node.walk():
        if inner.aggregate is not None:
            covered |= set(inner.aggregate.over)
    return covered


def _check_step(
    tree: FTree,
    step: Step,
    context: "PlanContext | None",
    subject: str | None,
    label: str,
) -> list[Finding]:
    """Pre-conditions of one step against the current tree."""

    def finding(rule: str, message: str) -> Finding:
        return Finding(rule, f"{label}: {message}", subject=subject)

    def unknown(*names: str) -> list[Finding]:
        return [
            finding("plan/unknown-node", f"attribute {name!r} is not in the tree")
            for name in names
            if name not in tree
        ]

    if isinstance(step, SwapStep):
        missing = unknown(step.child)
        if missing:
            return missing
        if tree.parent(tree.node(step.child)) is None:
            return [
                finding(
                    "plan/swap-root",
                    f"χ↑{step.child} promotes a node that is already a root",
                )
            ]
        return []

    if isinstance(step, MergeStep):
        missing = unknown(step.left, step.right)
        if missing:
            return missing
        left, right = tree.node(step.left), tree.node(step.right)
        if left is right:
            return [
                finding(
                    "plan/merge-not-siblings",
                    f"{step.left} and {step.right} already label one node",
                )
            ]
        if tree.parent(left) is not tree.parent(right):
            return [
                finding(
                    "plan/merge-not-siblings",
                    f"{step.left} and {step.right} have different parents",
                )
            ]
        return []

    if isinstance(step, AbsorbStep):
        missing = unknown(step.ancestor, step.descendant)
        if missing:
            return missing
        ancestor = tree.node(step.ancestor)
        descendant = tree.node(step.descendant)
        if ancestor is descendant or not tree.is_ancestor(ancestor, descendant):
            return [
                finding(
                    "plan/absorb-not-ancestor",
                    f"{step.ancestor} is not a strict ancestor of "
                    f"{step.descendant}",
                )
            ]
        return []

    if isinstance(step, SelectStep):
        names = [
            name
            for condition in step.conditions
            for name in (
                sorted(condition.attribute.attributes())
                if condition.is_expression
                else (condition.attribute,)
            )
        ]
        return unknown(*names)

    if isinstance(step, RenameStep):
        missing = unknown(step.old)
        if missing:
            return missing
        if step.new in tree:
            return [
                finding(
                    "plan/rename-clash",
                    f"ρ target {step.new!r} is already in the tree",
                )
            ]
        return []

    if isinstance(step, RemoveLeafStep):
        missing = unknown(step.name)
        if missing:
            return missing
        if tree.node(step.name).children:
            return [
                finding(
                    "plan/remove-not-leaf",
                    f"π removes {step.name!r}, which has children",
                )
            ]
        return []

    if isinstance(step, AggregateStep):
        return _check_gamma(tree, step, context, finding, unknown)

    return []  # an unknown step type verifies trivially


def _check_gamma(tree, step, context, finding, unknown):
    findings: list[Finding] = []
    if step.parent is not None:
        missing = unknown(step.parent)
        if missing:
            return missing
        siblings = tree.node(step.parent).children
    else:
        siblings = tree.roots
    by_name = {child.name: child for child in siblings}

    bad_functions = sorted(
        {fn for fn, _ in step.functions} - GAMMA_FUNCTIONS
    )
    if bad_functions:
        findings.append(
            finding(
                "plan/aggregate-shape",
                f"γ carries non-partial function(s) "
                f"{{{', '.join(bad_functions)}}}; partials must be "
                f"drawn from {{{', '.join(sorted(GAMMA_FUNCTIONS))}}}",
            )
        )
    if step.name in tree:
        findings.append(
            finding(
                "plan/aggregate-shape",
                f"γ result name {step.name!r} is already in the tree",
            )
        )

    children: list[FNode] = []
    where = f"children of {step.parent!r}" if step.parent else "roots"
    for name in step.children:
        child = by_name.get(name)
        if child is None:
            findings.append(
                finding(
                    "plan/aggregate-shape",
                    f"γ child {name!r} is not among the {where}",
                )
            )
        else:
            children.append(child)

    covered: set[str] = set()
    for child in children:
        covered |= _covered_attributes(child)

    if context is not None:
        kept_hit = sorted(covered & context.kept)
        if kept_hit:
            findings.append(
                finding(
                    "plan/aggregate-kept",
                    f"γ aggregates away kept attribute(s) "
                    f"{{{', '.join(kept_hit)}}}",
                )
            )
        protected_hit = sorted(covered & context.protected)
        if protected_hit:
            findings.append(
                finding(
                    "plan/aggregate-protected",
                    f"γ covers protected attribute(s) "
                    f"{{{', '.join(protected_hit)}}} that must stay "
                    "atomic for the final expression pass",
                )
            )
        for group in context.coupled:
            joint = sorted(covered & group)
            if len(joint) >= 2:
                findings.append(
                    finding(
                        "plan/aggregate-coupled",
                        f"one γ covers coupled attributes "
                        f"{{{', '.join(joint)}}}; their joint products "
                        "are unrecoverable from separate partials",
                    )
                )
    return findings


def verify_plan(
    plan: FPlan,
    ftree: FTree,
    context: "PlanContext | None" = None,
    *,
    subject: str | None = None,
) -> list[Finding]:
    """Replay ``plan`` over ``ftree``, checking every operator's pre-
    and post-conditions, then the final-state shape conditions.

    ``context`` (the optimiser's :class:`PlanContext`) enables the
    γ constraint checks (kept/coupled/protected) and the Theorem 1/2
    final-state checks; without it only structural conditions apply.
    Replay stops at the first structural error — the tree state beyond
    a failed step is meaningless.
    """
    findings: list[Finding] = []
    tree = ftree
    for index, step in enumerate(plan):
        label = f"step {index + 1} [{step}]"
        pre = _check_step(tree, step, context, subject, label)
        findings.extend(pre)
        if any(f.severity == "error" for f in pre):
            return findings
        try:
            tree = step.place(tree).tree
        except (FPlanError, FTreeError, KeyError, ValueError) as error:
            findings.append(
                Finding(
                    "plan/step-failed",
                    f"{label}: the operator rejected the application: "
                    f"{error}",
                    subject=subject,
                )
            )
            return findings
        if not tree.satisfies_path_constraint():
            findings.append(
                Finding(
                    "plan/step-path-constraint",
                    f"{label}: the resulting tree violates the path "
                    "constraint",
                    subject=subject,
                )
            )
            return findings
    findings.extend(_check_final_tree(tree, context, subject))
    return findings


def _check_final_tree(
    tree: FTree, context: "PlanContext | None", subject: str | None
) -> list[Finding]:
    """Theorem 1/2 shape conditions on the plan's output tree.

    These are warnings: the engine restructures (or sorts flat) at run
    time when the shape conditions fail, so answers stay correct — but
    the constant-delay enumeration guarantee of §4 is lost.
    """
    if context is None:
        return []
    findings: list[Finding] = []
    if context.functions:
        kept_present = [k for k in context.kept if k in tree]
        if not supports_grouping(tree, kept_present):
            findings.append(
                Finding(
                    "plan/grouping",
                    "final tree misses the Theorem 1 grouping "
                    f"condition for {{{', '.join(sorted(kept_present))}}};"
                    " group enumeration needs a run-time restructure",
                    severity="warning",
                    subject=subject,
                )
            )
    if context.order:
        keys = [k for k in normalise_order(context.order) if k.attribute in tree]
        if keys and not supports_order(tree, keys):
            order = ", ".join(str(k) for k in keys)
            findings.append(
                Finding(
                    "plan/order-prefix",
                    "final tree misses the Theorem 2 prefix-closure "
                    f"condition for o[{order}]; ordered enumeration "
                    "needs a run-time restructure or flat sort",
                    severity="warning",
                    subject=subject,
                )
            )
    return findings


# ---------------------------------------------------------------------------
# Artifact-level entry points (the prepare-time hook)
# ---------------------------------------------------------------------------
def verify_compiled(
    compiled: FDBCompiled, *, subject: str | None = None
) -> list[Finding]:
    """Verify one FDB plan artifact: input tree, replay, final shape —
    under the planning context the artifact was compiled with."""
    findings = verify_ftree(compiled.ftree, subject=subject)
    if findings:
        return findings
    return verify_plan(
        compiled.plan, compiled.ftree, compiled.context, subject=subject
    )


def verify_artifact(
    query: Query,
    artifact: object,
    database: "Database",
    *,
    subject: str | None = None,
) -> list[Finding]:
    """Verify whatever plan artifact a backend produced for ``query``.

    Type checking of the expression AST applies to every backend; the
    structural plan checks apply to FDB plans.  This is the
    ``verify=True`` prepare-time hook.
    """
    from repro.analysis.typecheck import check_query_types

    findings = check_query_types(query, database, subject=subject)
    if isinstance(artifact, FDBCompiled):
        findings.extend(verify_compiled(artifact, subject=subject))
    return findings
