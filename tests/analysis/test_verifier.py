"""Golden-findings fixtures: each invalid f-tree/plan trips one rule."""

from __future__ import annotations

import pytest

from repro.analysis import (
    PlanVerificationError,
    verify_compiled,
    verify_ftree,
    verify_plan,
)
from repro.core.cost import Hypergraph
from repro.core.engine import FDBEngine
from repro.core.fplan import (
    AbsorbStep,
    AggregateStep,
    FPlan,
    MergeStep,
    RemoveLeafStep,
    RenameStep,
    SwapStep,
)
from repro.core.ftree import AggregateAttribute, build_ftree
from repro.core.optimizer import PlanContext
from repro.data.pizzeria import pizzeria_database


def rules_of(findings):
    return [f.rule for f in findings]


def errors_of(findings):
    return [f.rule for f in findings if f.severity == "error"]


# ---------------------------------------------------------------------------
# F-tree invariants
# ---------------------------------------------------------------------------
class TestFTreeInvariants:
    def test_valid_tree_is_clean(self):
        # Sibling branches carry disjoint relation keys (B and C are
        # independent given A), so the path constraint holds.
        tree = build_ftree(
            [("A", [("B", []), ("C", [])])],
            keys={"A": {"r", "s"}, "B": {"r"}, "C": {"s"}},
        )
        assert verify_ftree(tree) == []

    def test_path_constraint_violation(self):
        # B and C share the dependency key but sit in sibling branches.
        tree = build_ftree(
            [("A", [("B", []), ("C", [])])],
            keys={"A": {"r"}, "B": {"r", "s"}, "C": {"r", "s"}},
        )
        findings = verify_ftree(tree)
        assert rules_of(findings) == ["ftree/path-constraint"]
        assert "B" in findings[0].message and "C" in findings[0].message

    def test_key_closure_violation(self):
        tree = build_ftree([("A", [("B", [])])], keys={"A": {"r"}, "B": set()})
        findings = verify_ftree(tree)
        assert rules_of(findings) == ["ftree/key-closure"]
        assert "B" in findings[0].message

    def test_aggregate_over_clash(self):
        # The aggregate folded `price` away, yet `price` is still atomic.
        agg = AggregateAttribute(
            (("sum", "price"),), frozenset({"price"}), "total"
        )
        tree = build_ftree(
            [("customer", [(agg, []), ("price", [])])],
            keys={"customer": {"r", "s"}, "total": {"r"}, "price": {"s"}},
        )
        findings = verify_ftree(tree)
        assert rules_of(findings) == ["ftree/aggregate-over"]
        assert "price" in findings[0].message

    def test_schema_partition_violation(self):
        tree = build_ftree([("A", [("B", [])])])
        findings = verify_ftree(tree, schema=("A", "C"))
        assert rules_of(findings) == ["ftree/schema-partition"]
        assert "missing {C}" in findings[0].message
        assert "extra {B}" in findings[0].message

    def test_subject_is_attached(self):
        tree = build_ftree([("A", [])], keys={"A": set()})
        findings = verify_ftree(tree, subject="view:T")
        assert findings[0].subject == "view:T"


# ---------------------------------------------------------------------------
# F-plan operator pre-conditions (structural, context-free)
# ---------------------------------------------------------------------------
class TestPlanSteps:
    def tree(self):
        return build_ftree(
            [("A", [("B", [("C", [])]), ("D", [])])],
            keys={"A": {"r", "s"}, "B": {"r"}, "C": {"r"}, "D": {"s"}},
        )

    def test_empty_plan_is_clean(self):
        assert verify_plan(FPlan([]), self.tree()) == []

    def test_unknown_node(self):
        findings = verify_plan(FPlan([SwapStep("Z")]), self.tree())
        assert rules_of(findings) == ["plan/unknown-node"]

    def test_swap_root(self):
        findings = verify_plan(FPlan([SwapStep("A")]), self.tree())
        assert rules_of(findings) == ["plan/swap-root"]

    def test_merge_not_siblings(self):
        findings = verify_plan(FPlan([MergeStep("A", "C")]), self.tree())
        assert rules_of(findings) == ["plan/merge-not-siblings"]

    def test_absorb_not_ancestor(self):
        findings = verify_plan(FPlan([AbsorbStep("D", "C")]), self.tree())
        assert rules_of(findings) == ["plan/absorb-not-ancestor"]

    def test_rename_clash(self):
        findings = verify_plan(FPlan([RenameStep("B", "D")]), self.tree())
        assert rules_of(findings) == ["plan/rename-clash"]

    def test_remove_not_leaf(self):
        findings = verify_plan(FPlan([RemoveLeafStep("B")]), self.tree())
        assert rules_of(findings) == ["plan/remove-not-leaf"]

    def test_replay_stops_at_first_error(self):
        # The second step would also be invalid; replay must not reach it.
        plan = FPlan([SwapStep("A"), SwapStep("Z")])
        findings = verify_plan(plan, self.tree())
        assert rules_of(findings) == ["plan/swap-root"]

    def test_valid_swap_sequence_is_clean(self):
        assert verify_plan(FPlan([SwapStep("C")]), self.tree()) == []


# ---------------------------------------------------------------------------
# γ placement constraints (need a PlanContext)
# ---------------------------------------------------------------------------
class TestGammaConstraints:
    def tree(self):
        return build_ftree(
            [("A", [("B", []), ("C", [])])],
            keys={"A": {"r", "s"}, "B": {"r"}, "C": {"s"}},
        )

    def context(self, **overrides):
        options = {
            "kept": frozenset({"A"}),
            "functions": (("sum", "B"),),
        }
        options.update(overrides)
        return PlanContext(Hypergraph({"R": ("A", "B", "C")}), **options)

    def gamma(self, children=("B",), functions=(("sum", "B"),), name="g0"):
        return AggregateStep("A", tuple(children), tuple(functions), name)

    def test_valid_gamma_is_clean(self):
        findings = verify_plan(
            FPlan([self.gamma()]), self.tree(), self.context()
        )
        assert errors_of(findings) == []

    def test_non_partial_function(self):
        findings = verify_plan(
            FPlan([self.gamma(functions=(("avg", "B"),))]),
            self.tree(),
            self.context(),
        )
        assert "plan/aggregate-shape" in errors_of(findings)

    def test_result_name_clash(self):
        findings = verify_plan(
            FPlan([self.gamma(name="C")]), self.tree(), self.context()
        )
        assert "plan/aggregate-shape" in errors_of(findings)

    def test_child_not_under_parent(self):
        findings = verify_plan(
            FPlan([AggregateStep("B", ("C",), (("count", None),), "g0")]),
            self.tree(),
            self.context(),
        )
        assert "plan/aggregate-shape" in errors_of(findings)

    def test_aggregating_away_kept_attribute(self):
        findings = verify_plan(
            FPlan([self.gamma(children=("B",))]),
            self.tree(),
            self.context(kept=frozenset({"B"})),
        )
        assert "plan/aggregate-kept" in errors_of(findings)

    def test_covering_protected_attribute(self):
        findings = verify_plan(
            FPlan([self.gamma(children=("B",))]),
            self.tree(),
            self.context(protected=frozenset({"B"})),
        )
        assert "plan/aggregate-protected" in errors_of(findings)

    def test_coupled_attributes_in_one_gamma(self):
        findings = verify_plan(
            FPlan([self.gamma(children=("B", "C"))]),
            self.tree(),
            self.context(coupled=(frozenset({"B", "C"}),)),
        )
        assert "plan/aggregate-coupled" in errors_of(findings)


# ---------------------------------------------------------------------------
# Final-state shape conditions are warnings, not errors
# ---------------------------------------------------------------------------
class TestFinalTreeWarnings:
    def test_order_prefix_warning(self):
        # Ordering on a non-root attribute: Theorem 2 prefix-closure
        # fails, but the engine restructures at run time — warning only.
        tree = build_ftree([("A", [("B", [])])])
        context = PlanContext(
            Hypergraph({"R": ("A", "B")}), kept=frozenset({"A", "B"}),
            order=("B",),
        )
        findings = verify_plan(FPlan([]), tree, context)
        assert rules_of(findings) == ["plan/order-prefix"]
        assert findings[0].severity == "warning"

    def test_grouping_warning(self):
        tree = build_ftree([("A", [("B", []), ("C", [])])])
        context = PlanContext(
            Hypergraph({"R": ("A", "B", "C")}),
            kept=frozenset({"B"}),
            functions=(("sum", "C"),),
        )
        findings = verify_plan(FPlan([]), tree, context)
        assert rules_of(findings) == ["plan/grouping"]
        assert findings[0].severity == "warning"


# ---------------------------------------------------------------------------
# Compiled plans from the real optimiser verify clean
# ---------------------------------------------------------------------------
class TestVerifyCompiled:
    def test_pizzeria_group_by_plan_is_clean(self):
        from repro.query import AggregateSpec, Query

        database = pizzeria_database()
        engine = FDBEngine()
        query = Query(
            relations=("R",),
            group_by=("customer",),
            aggregates=(AggregateSpec("sum", "price", "revenue"),),
        )
        compiled = engine.compile(query, database)
        findings = verify_compiled(compiled)
        assert errors_of(findings) == []

    def test_error_findings_raise_with_rule_name(self):
        tree = build_ftree([("A", [])], keys={"A": set()})
        findings = verify_ftree(tree, subject="view:bad")
        error = PlanVerificationError(findings)
        assert "ftree/key-closure" in str(error)
        assert error.findings == tuple(findings)
        with pytest.raises(ValueError):
            raise error
