"""Unit tests for the greedy heuristic and exhaustive plan search."""

import pytest

from repro.core.build import factorise, factorise_path
from repro.core.cost import Hypergraph, s_parameter
from repro.core.fplan import AggregateStep, MergeStep, SwapStep
from repro.core.optimizer import (
    ExhaustiveOptimizer,
    GreedyOptimizer,
    PlanContext,
)
from repro.data.workloads import WORKLOAD, section6_ftree
from repro.query import Equality
from repro.relational.operators import multiway_join
from repro.stats.model import AttributeStats, RelationStats

from tests.core.reference_aggregates import expand_functions


HYPERGRAPH = Hypergraph(
    {
        "Orders": ("customer", "date", "package"),
        "Packages": ("package", "item"),
        "Items": ("item", "price"),
    }
)


def _context(query, order_included=True):
    aliases = {s.alias for s in query.aggregates}
    return PlanContext(
        hypergraph=HYPERGRAPH,
        kept=frozenset(query.group_by),
        functions=expand_functions(query.aggregates),
        order=tuple(
            k for k in query.order_by if k.attribute not in aliases
        )
        if order_included
        else (),
    )


def test_greedy_q2_structure():
    """The Q2 plan mirrors Example 1: partial γ, swaps, final γ."""
    plan = GreedyOptimizer().plan(section6_ftree(), _context(WORKLOAD["Q2"].query))
    kinds = [type(step).__name__ for step in plan]
    assert kinds.count("AggregateStep") >= 2  # partial + final aggregation
    assert "SwapStep" in kinds  # customer pushed to the root
    # First step: the item subtree is aggregated before restructuring.
    assert isinstance(plan.steps[0], AggregateStep)


def test_greedy_q1_single_gamma():
    """Q1 keeps all of package/date/customer: one γ over items suffices."""
    plan = GreedyOptimizer().plan(section6_ftree(), _context(WORKLOAD["Q1"].query))
    assert len(plan) == 1
    assert isinstance(plan.steps[0], AggregateStep)


def test_greedy_q5_whole_tree():
    plan = GreedyOptimizer().plan(section6_ftree(), _context(WORKLOAD["Q5"].query))
    assert len(plan) == 1
    step = plan.steps[0]
    assert step.parent is None  # aggregates the roots away entirely


def test_greedy_plans_executable(pizzeria_rels, t1):
    joined = multiway_join(list(pizzeria_rels))
    fact = factorise(joined, t1)
    hypergraph = Hypergraph(
        {
            "Orders": ("customer", "date", "pizza"),
            "Pizzas": ("pizza", "item"),
            "Items": ("item", "price"),
        }
    )
    ctx = PlanContext(
        hypergraph=hypergraph,
        kept=frozenset({"customer"}),
        functions=(("sum", "price"),),
    )
    plan = GreedyOptimizer().plan(fact.ftree, ctx)
    result = plan.execute(fact)
    result.validate()
    # Everything but customer is aggregated.
    atomic = {
        a
        for node in result.ftree.nodes()
        if node.aggregate is None
        for a in node.attributes
    }
    assert atomic == {"customer"}


def test_greedy_selections_first():
    """Pending equalities block aggregation of their subtrees (Prop. 3)."""
    from repro.core.ftree import build_ftree

    tree = build_ftree(
        ["a", "b"],
        keys={"a": {"R"}, "b": {"S"}},
    )
    ctx = PlanContext(
        hypergraph=Hypergraph({"R": ("a",), "S": ("b",)}),
        equalities=(Equality("a", "b"),),
        kept=frozenset(),
        functions=(("count", None),),
    )
    plan = GreedyOptimizer().plan(tree, ctx)
    kinds = [type(step).__name__ for step in plan]
    assert kinds[0] == "MergeStep"  # selection before any γ
    assert "AggregateStep" in kinds


def test_greedy_order_restructuring():
    """Step 5: Q12's order induces exactly one swap (Experiment 4)."""
    ctx = PlanContext(
        hypergraph=HYPERGRAPH,
        kept=frozenset({"package", "date", "item", "customer", "price"}),
        functions=(),
        order=tuple(WORKLOAD["Q12"].query.order_by),
    )
    plan = GreedyOptimizer().plan(section6_ftree(), ctx)
    assert [s for s in plan] == [SwapStep("date")]


def test_greedy_no_order_work_for_q11():
    ctx = PlanContext(
        hypergraph=HYPERGRAPH,
        kept=frozenset({"package", "date", "item", "customer", "price"}),
        functions=(),
        order=tuple(WORKLOAD["Q11"].query.order_by),
    )
    plan = GreedyOptimizer().plan(section6_ftree(), ctx)
    assert len(plan) == 0


def test_exhaustive_matches_greedy_exponent():
    """The paper: greedy is optimal for the workload (asymptotic metric)."""
    for name in ("Q1", "Q2", "Q3", "Q4", "Q5"):
        ctx = _context(WORKLOAD[name].query)
        tree = section6_ftree()
        greedy = GreedyOptimizer().plan(tree, ctx)
        exhaustive = ExhaustiveOptimizer().plan(tree, ctx)
        g_exp = max(
            (s_parameter(p.tree, HYPERGRAPH) for p in greedy.place(tree)),
            default=0.0,
        )
        e_exp = max(
            (s_parameter(p.tree, HYPERGRAPH) for p in exhaustive.place(tree)),
            default=0.0,
        )
        assert g_exp <= e_exp + 1e-9, name


def test_exhaustive_small_join_plan():
    from repro.core.ftree import build_ftree

    tree = build_ftree(
        ["a", "b"],
        keys={"a": {"R"}, "b": {"S"}},
    )
    ctx = PlanContext(
        hypergraph=Hypergraph({"R": ("a",), "S": ("b",)}),
        equalities=(Equality("a", "b"),),
    )
    plan = ExhaustiveOptimizer().plan(tree, ctx)
    assert any(isinstance(step, MergeStep) for step in plan)


def _stats(**relations):
    return {
        name: RelationStats(
            name=name,
            rows=rows,
            attributes={
                attribute: AttributeStats(distinct=distinct, total=rows)
                for attribute, distinct in distincts.items()
            },
        )
        for name, (rows, distincts) in relations.items()
    }


@pytest.mark.parametrize(
    "stats",
    [
        None,
        _stats(
            Orders=(400, {"customer": 20, "date": 30, "package": 8}),
            Packages=(40, {"package": 8, "item": 12}),
            Items=(12, {"item": 12, "price": 10}),
        ),
    ],
    ids=["size-bound", "statistics"],
)
def test_exhaustive_falls_back_when_capped(stats):
    """Past the state cap the search returns the greedy plan and says
    so, whether it prices by the size bound or by estimates (which also
    prune by the greedy plan's s-bound over these three inputs)."""
    ctx = _context(WORKLOAD["Q2"].query)
    ctx.stats = stats
    tight = ExhaustiveOptimizer(max_states=1)
    plan = tight.plan(section6_ftree(), ctx)  # falls back to greedy
    greedy = GreedyOptimizer().plan(section6_ftree(), ctx)
    assert plan.fallback == "state cap 1 → greedy plan"
    assert greedy.fallback is None

    def shape(steps):
        # Aggregate names are freshly minted, so compare shapes only.
        return [
            (type(s).__name__, getattr(s, "child", None), getattr(s, "children", None))
            for s in steps
        ]

    assert shape(plan) == shape(greedy)


def test_push_costing_prefers_cheap_side():
    """Step 3 compares pushing either side by the size-bound metric."""
    from repro.core.ftree import build_ftree

    # R(a, x) as path a→x and S(b) single: equate x = b.
    tree = build_ftree(
        [("a", ["x"]), "b"],
        keys={"a": {"R"}, "x": {"R"}, "b": {"S"}},
    )
    ctx = PlanContext(
        hypergraph=Hypergraph({"R": ("a", "x"), "S": ("b",)}),
        equalities=(Equality("x", "b"),),
    )
    plan = GreedyOptimizer().plan(tree, ctx)
    result_kinds = [type(s).__name__ for s in plan]
    assert result_kinds[-1] in ("MergeStep", "AbsorbStep")
