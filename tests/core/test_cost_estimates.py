"""Data-driven cost estimates and the scipy-free covering-LP path.

The pure-Python vertex-enumeration solver must reproduce the scipy
``linprog`` optimum exactly on the classical hypergraphs (the LP's
optimal value is what :func:`fractional_edge_cover` pins elsewhere);
the estimation layer combines the AGM bound with distinct-count
products and falls back to the asymptotic ``scale`` without stats.
"""

from __future__ import annotations

import pytest

from repro.core.cost import (
    HAVE_SCIPY,
    Hypergraph,
    _greedy_cover,
    _pure_cover_solve,
    estimated_node_count,
    estimated_plan_cost,
    estimated_tree_size,
)
from repro.core.ftree import build_ftree
from repro.stats.model import AttributeStats, RelationStats


def _edges(mapping):
    return {name: frozenset(attrs) for name, attrs in mapping.items()}


TRIANGLE = _edges({"R": "ab", "S": "bc", "T": "ca"})
PATH3 = _edges({"R": "ab", "S": "bc"})
STAR = _edges({"R": "ax", "S": "bx", "T": "cx"})


@pytest.mark.parametrize(
    "edges,attrs,expected",
    [
        (TRIANGLE, "abc", 1.5),
        (PATH3, "abc", 2.0),
        (PATH3, "b", 1.0),
        (STAR, "abcx", 3.0),
    ],
)
def test_pure_cover_matches_known_optima(edges, attrs, expected):
    rho, weights = _pure_cover_solve(
        sorted(edges), sorted(attrs), edges
    )
    assert rho == pytest.approx(expected)
    # The weights must themselves be a fractional cover.
    for attribute in attrs:
        covering = sum(
            weight
            for name, weight in weights.items()
            if attribute in edges[name]
        )
        assert covering >= 1 - 1e-9


@pytest.mark.skipif(not HAVE_SCIPY, reason="scipy not installed")
@pytest.mark.parametrize("edges", [TRIANGLE, PATH3, STAR])
def test_pure_cover_agrees_with_scipy(edges):
    attrs = sorted(set().union(*edges.values()))
    hypergraph = Hypergraph(edges)
    rho, _ = _pure_cover_solve(sorted(edges), attrs, edges)
    assert rho == pytest.approx(hypergraph.fractional_edge_cover(attrs))


def test_greedy_cover_is_an_upper_bound():
    attrs = sorted(set().union(*TRIANGLE.values()))
    rho, weights = _greedy_cover(sorted(TRIANGLE), attrs, TRIANGLE)
    assert rho >= 1.5
    assert all(weight == 1.0 for weight in weights.values())


def test_cover_weights_expose_the_optimal_basis():
    hypergraph = Hypergraph(TRIANGLE)
    weights = hypergraph.cover_weights("abc")
    assert sum(weights.values()) == pytest.approx(1.5)
    assert all(w == pytest.approx(0.5) for w in weights.values())


# ---------------------------------------------------------------------------
# Estimation layer
# ---------------------------------------------------------------------------
def _stats(**relations):
    out = {}
    for name, (rows, distincts) in relations.items():
        out[name] = RelationStats(
            name=name,
            rows=rows,
            attributes={
                attribute: AttributeStats(distinct=distinct, total=rows)
                for attribute, distinct in distincts.items()
            },
        )
    return out


def test_estimated_node_count_prefers_tighter_bound():
    hypergraph = Hypergraph(PATH3)
    stats = _stats(R=(100, {"a": 100, "b": 4}), S=(100, {"b": 7, "c": 50}))
    # AGM for {b}: rows^weight = 100, distinct product: min(4, 7) = 4.
    assert estimated_node_count(hypergraph, ["b"], stats) == 4.0
    # AGM for {a, b}: one relation covers both — 100 < 100 × 4.
    assert estimated_node_count(hypergraph, ["a", "b"], stats) == 100.0


def test_estimated_node_count_falls_back_to_scale():
    hypergraph = Hypergraph(PATH3)
    assert (
        estimated_node_count(hypergraph, ["b"], {}, scale=64.0) == 64.0
    )
    assert estimated_node_count(hypergraph, [], {}) == 1.0


def test_estimated_tree_size_rewards_small_side_roots():
    edges = _edges({"V": "jxy"})
    hypergraph = Hypergraph(edges)
    stats = _stats(V=(1000, {"j": 10, "x": 500, "y": 5}))
    x_up = build_ftree([("x", [("j", ["y"])])])
    y_up = build_ftree([("y", [("j", ["x"])])])
    assert estimated_tree_size(
        x_up, hypergraph, stats
    ) > estimated_tree_size(y_up, hypergraph, stats)


def test_estimated_plan_cost_sums_trees():
    edges = _edges({"V": "jxy"})
    hypergraph = Hypergraph(edges)
    stats = _stats(V=(1000, {"j": 10, "x": 500, "y": 5}))
    tree = build_ftree([("j", ["x", "y"])])
    single = estimated_tree_size(tree, hypergraph, stats)
    assert estimated_plan_cost(
        [tree, tree], hypergraph, stats
    ) == pytest.approx(2 * single)


# ---------------------------------------------------------------------------
# The view-count estimator
# ---------------------------------------------------------------------------
def _view_stats():
    """Entry totals of a view stored over package → (date → customer,
    item → price): 4 packages, 40 (package, date) entries, …"""
    totals = {"package": 4, "date": 40, "customer": 44, "item": 12, "price": 12}
    nesting = {
        "package": ("package",),
        "date": ("package", "date"),
        "customer": ("package", "date", "customer"),
        "item": ("package", "item"),
        "price": ("package", "item", "price"),
    }
    distinct = {"package": 4, "date": 25, "customer": 9, "item": 6, "price": 3}
    return RelationStats(
        name="V",
        rows=132,
        attributes={
            name: AttributeStats(distinct=distinct[name], total=total)
            for name, total in totals.items()
        },
        source="columnar",
        nesting=nesting,
    )


def test_view_count_is_exact_along_a_path_and_a_product_across_branches():
    from repro.core.cost import view_count

    view = _view_stats()
    assert view_count(view, frozenset({"package"})) == 4
    assert view_count(view, frozenset({"package", "date"})) == 40
    # Ancestors that are projected away are still counted …
    assert view_count(view, frozenset({"customer"})) == 44
    # … and independent branches multiply their fan-outs per package:
    # 4 × (40 / 4) × (12 / 4) (date, item) combinations.
    assert view_count(view, frozenset({"date", "item"})) == pytest.approx(120)
    assert view_count(view, frozenset({"customer", "price"})) == pytest.approx(
        132
    )
    assert view_count(view, frozenset({"date", "unknown"})) is None
    flat = RelationStats(name="V", rows=132, attributes=view.attributes)
    assert view_count(flat, frozenset({"date"})) is None


def test_view_counts_cap_the_bounds_and_are_capped_by_them():
    view = _view_stats()
    hypergraph = Hypergraph({"V": view.attributes})
    stats = {"V": view}
    # AGM says 132 rows for any attribute set; the view knows better.
    assert estimated_node_count(hypergraph, ["package", "date"], stats) == 40
    # χ↑date: 25 distinct dates cap the 40 (package, date) entries.
    assert estimated_node_count(hypergraph, ["date"], stats) == 25
    swapped = build_ftree([("date", [("package", ["customer", ("item", ["price"])])])])
    # date 25 + package 40 + customer 44 + item 120 + price 120 —
    # the fan-out χ↑date pays for copying each package's items per date.
    assert estimated_tree_size(swapped, hypergraph, stats) == pytest.approx(349)
    without = {"V": RelationStats("V", 132, view.attributes)}
    assert estimated_tree_size(swapped, hypergraph, without) > 349


def test_renaming_statistics_renames_the_nesting():
    renamed = _view_stats().renamed({"date": "day"})
    assert renamed.nesting["customer"] == ("package", "day", "customer")
    assert "date" not in renamed.nesting and "day" in renamed.attributes


@pytest.mark.parametrize("seed", [7, 11])
def test_every_intermediate_estimate_is_within_2x_of_the_observed_size(seed):
    """All intermediate trees of all cost-based FULL_WORKLOAD plans over
    the registered views R1/R2/R3 (the bounds alone were off by 40×)."""
    from repro.core.engine import FDBEngine
    from repro.data.workloads import FULL_WORKLOAD, build_workload_database
    from repro.stats import stats_cache

    stats_cache().clear()
    database = build_workload_database(scale=0.5, seed=seed)
    engine = FDBEngine(optimizer="cost")
    checked = 0
    for name, workload in FULL_WORKLOAD.items():
        compiled = engine.compile(workload.query, database)
        _, plan, trace = engine.execute_planned(compiled, workload.query, database)
        estimates = compiled.provenance["estimated_sizes"]
        assert len(estimates) == len(plan.steps)
        if estimates:
            assert compiled.provenance["estimated_size"] == estimates[-1]
        for step, estimate, observed in zip(
            plan.steps, estimates, trace.sizes[len(trace.sizes) - len(estimates):]
        ):
            assert observed / 2 <= estimate <= observed * 2, (name, str(step))
            checked += 1
    assert checked >= 20
    stats_cache().clear()
