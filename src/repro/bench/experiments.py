"""The experiments of Section 6, one entry point per figure.

Each ``run_*`` function builds the workload database(s), times the
registry's engines (:func:`repro.api.create_engine`) on the figure's
queries, renders a paper-style table and returns the raw measurements,
so tests can assert on the *shape* of the results (who wins, by what
factor) without hard-coding absolute times.

Engine rows, as in the paper: ``fdb`` (FDB) and ``fdb-factorised``
(FDB f/o), both planned by the greedy optimiser, the paper's setting;
``sqlite``; ``rdb`` (RDB-sort, SQLite's sort-based grouping) and
``rdb-hash`` (RDB-hash, PostgreSQL's hash aggregation).  Figure 6 adds
the "man" rows: the eager-aggregation rewrite fed to SQLite as SQL text
and run by the flat baseline as a plan.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable, Mapping, Sequence

from repro.api import create_engine
from repro.api.engines import Engine
from repro.core.build import factorise
from repro.data.generator import GeneratorConfig, generate
from repro.data.workloads import (
    AGG_ORD_QUERIES,
    AGG_QUERIES,
    ORD_QUERIES,
    WORKLOAD,
    build_workload_database,
    section6_ftree,
)
from repro.database import Database
from repro.obs import clock
from repro.query import Query
from repro.relational.plans import eager_aggregation
from repro.sql.generator import eager_query_to_sql

#: The single-scale experiments' scale, the sweeps' scales and the
#: repeats per measurement when the caller does not choose them.
SCALE = 1.0
SCALES = (0.25, 0.5, 1.0, 2.0)
REPEATS = 3

#: One row of a figure: its label and a call running a query to the end
#: and returning its row count.
Runner = tuple[str, Callable[[Query], int]]


# ---------------------------------------------------------------------------
# Measurements and tables
# ---------------------------------------------------------------------------
@dataclass
class BenchResult:
    """One measured cell: engine × query (× scale).

    ``seconds`` is best-of-N (the paper times warmed-up runs);
    ``median`` is the median of the same N repeats.
    """

    engine: str
    query: str
    seconds: float
    rows: int = 0
    scale: float | None = None
    median: float | None = None

    def cell(self) -> str:
        return f"{self.seconds:.4f}s"


@dataclass
class Series:
    """A labelled series of (x, y) points (Figure 4-style plots)."""

    label: str
    points: list[tuple[float, float]] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        self.points.append((x, y))


@dataclass
class ExperimentReport:
    """Measurements plus the rendered table of one experiment."""

    name: str
    results: list[BenchResult] = field(default_factory=list)
    table: str = ""
    extras: dict = field(default_factory=dict)

    def seconds(self, engine: str, query: str) -> float:
        for result in self.results:
            if result.engine == engine and result.query == query:
                return result.seconds
        raise KeyError((engine, query))


def time_call_stats(
    call: Callable[[], Any], repeats: int = REPEATS
) -> tuple[float, float, Any]:
    """Best-of-N and median-of-N wall-clock times plus the last result."""
    samples: list[float] = []
    result: Any = None
    for _ in range(max(1, repeats)):
        start = clock.now()
        result = call()
        samples.append(clock.now() - start)
    return min(samples), statistics.median(samples), result


def render_table(
    title: str,
    row_labels: Sequence[str],
    column_labels: Sequence[str],
    cells: dict[tuple[str, str], str],
    row_header: str = "",
) -> str:
    """ASCII table matching the paper's per-figure layout."""
    widths = [max(len(row_header), *(len(r) for r in row_labels))]
    for column in column_labels:
        column_cells = [cells.get((row, column), "-") for row in row_labels]
        widths.append(max(len(column), *(len(c) for c in column_cells)))
    header = [row_header.ljust(widths[0])] + [
        c.rjust(w) for c, w in zip(column_labels, widths[1:])
    ]
    lines = [title, "  " + " | ".join(header)]
    lines.append("  " + "-+-".join("-" * w for w in widths))
    for row in row_labels:
        line = [row.ljust(widths[0])] + [
            cells.get((row, column), "-").rjust(w)
            for column, w in zip(column_labels, widths[1:])
        ]
        lines.append("  " + " | ".join(line))
    return "\n".join(lines)


def render_series(title: str, series: Sequence[Series], x_label: str) -> str:
    """Numeric series table (stands in for the paper's log-log plots)."""
    xs = sorted({x for s in series for x, _ in s.points})
    cells = {}
    for s in series:
        lookup = dict(s.points)
        for x in xs:
            if x in lookup:
                cells[(s.label, f"{x:g}")] = f"{lookup[x]:.4f}"
    return render_table(
        title,
        [s.label for s in series],
        [f"{x:g}" for x in xs],
        cells,
        row_header=x_label,
    )


def fit_loglog_slope(points: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) against log(x) (growth exponent)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    n = len(points)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    numerator = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    denominator = sum((x - mean_x) ** 2 for x in xs)
    if denominator == 0:
        return 0.0
    return numerator / denominator


# ---------------------------------------------------------------------------
# Engines
# ---------------------------------------------------------------------------
def _count(engine: Engine, database: Database, query: Query) -> int:
    """Run ``query`` to the end: its row count or, for FDB f/o (whose
    timings exclude enumeration, as in the paper), its singleton count."""
    run = engine.run(query, database)
    if run.factorised is not None:
        return run.factorised.size()
    return len(run.relation)


def _prepared(name: str, database: Database) -> Engine:
    """A registry engine loaded with ``database`` (loading is excluded
    from timings, as the paper excludes data import)."""
    options = {"optimizer": "greedy"} if name.startswith("fdb") else {}
    engine = create_engine(name, **options)
    engine.prepare(database)
    return engine


def _engines(database: Database, *names: str) -> list[Runner]:
    runners = []
    for name in names:
        engine = _prepared(name, database)
        runners.append((engine.name, partial(_count, engine, database)))
    return runners


def _workload(names: Sequence[str]) -> dict[str, Query]:
    return {name: WORKLOAD[name].query for name in names}


def _measure(
    runners: Sequence[Runner],
    queries: Mapping[str, Query],
    repeats: int,
    scale: float,
) -> list[BenchResult]:
    results = []
    for label, run in runners:
        for name, query in queries.items():
            seconds, median, rows = time_call_stats(
                partial(run, query), repeats
            )
            results.append(
                BenchResult(label, name, seconds, rows, scale, median)
            )
    return results


def _table(report: ExperimentReport, queries: Sequence[str], title: str) -> None:
    engines = list(dict.fromkeys(r.engine for r in report.results))
    cells = {
        (r.engine, r.query): r.cell() for r in report.results
    }
    report.table = render_table(title, engines, list(queries), cells, "engine")


# ---------------------------------------------------------------------------
# Representation sizes (Section 6, text): s^4 vs s^3 growth claim
# ---------------------------------------------------------------------------
def run_sizes(
    scales: Sequence[float] = SCALES, seed: int = 2013
) -> ExperimentReport:
    """Singleton counts of flat vs factorised R1 across scales.

    The paper reports the join growing as s^4 against s^3 for its
    factorisation (a gap linear in s); with the generator parameters as
    stated in the text the measured gap is the items-per-package factor
    (≈ 20·√s).  The report records the fitted log-log growth exponents
    so the shape claim — polynomially growing gap — is checked, not
    assumed.
    """
    report = ExperimentReport("sizes")
    flat_series = Series("flat singletons")
    fact_series = Series("factorised singletons")
    gap_series = Series("gap (flat/fact)")
    for scale in scales:
        data = generate(GeneratorConfig(scale=scale, seed=seed))
        view = factorise(list(data.relations()), section6_ftree())
        flat, fact = view.tuple_count() * len(view.schema()), view.size()
        flat_series.add(scale, flat)
        fact_series.add(scale, fact)
        gap_series.add(scale, flat / fact)
    report.extras["flat_exponent"] = fit_loglog_slope(flat_series.points)
    report.extras["fact_exponent"] = fit_loglog_slope(fact_series.points)
    report.table = render_series(
        "Representation sizes of R1 (singletons) — paper: join ~s^4 vs "
        "factorisation ~s^3",
        [flat_series, fact_series, gap_series],
        "scale",
    ) + (
        f"\n  fitted exponents: flat {report.extras['flat_exponent']:.2f}, "
        f"factorised {report.extras['fact_exponent']:.2f}"
    )
    report.extras["series"] = [flat_series, fact_series, gap_series]
    return report


# ---------------------------------------------------------------------------
# Experiment 1 / Figure 4: dataset scale vs performance (Q2, Q3)
# ---------------------------------------------------------------------------
def run_fig4(
    scales: Sequence[float] = SCALES, repeats: int = REPEATS
) -> ExperimentReport:
    """Wall-clock of Q2 and Q3 on the factorised view across scales."""
    report = ExperimentReport("fig4")
    series: dict[str, Series] = {}
    for scale in scales:
        database = build_workload_database(scale=scale)
        results = _measure(
            _engines(database, "fdb", "sqlite", "rdb", "rdb-hash"),
            _workload(("Q2", "Q3")),
            repeats,
            scale,
        )
        report.results.extend(results)
        for result in results:
            label = f"{result.engine}: {result.query}"
            series.setdefault(label, Series(label)).add(scale, result.seconds)
    report.table = render_series(
        "Figure 4 — effect of dataset scale on performance (seconds)",
        list(series.values()),
        "scale",
    )
    report.extras["series"] = series
    return report


# ---------------------------------------------------------------------------
# Experiment 1 / Figure 5: AGG queries on the factorised view
# ---------------------------------------------------------------------------
def run_fig5(scale: float = SCALE, repeats: int = REPEATS) -> ExperimentReport:
    """AGG Q1-Q5 on the materialised (factorised) view R1."""
    database = build_workload_database(scale=scale)
    runners = _engines(
        database, "fdb-factorised", "fdb", "sqlite", "rdb", "rdb-hash"
    )
    report = ExperimentReport("fig5")
    report.results = _measure(runners, _workload(AGG_QUERIES), repeats, scale)
    _table(
        report,
        AGG_QUERIES,
        f"Figure 5 — AGG queries on factorised view R1 (scale {scale:g})",
    )
    return report


# ---------------------------------------------------------------------------
# Experiment 2 / Figure 6: AGG queries on flat input (± manual plans)
# ---------------------------------------------------------------------------
def run_fig6(scale: float = SCALE, repeats: int = REPEATS) -> ExperimentReport:
    """AGG Q1-Q5 computed from the flat base relations.

    The multi-relation form of each query (natural join of the three
    base relations) replaces the view reference, as in the paper's
    Experiment 2; the "man" rows run the eager-aggregation rewrite.
    """
    database = build_workload_database(scale=scale, materialise_views=False)
    queries = {
        name: replace(query, relations=("Orders", "Packages", "Items"))
        for name, query in _workload(AGG_QUERIES).items()
    }
    sqlite = _prepared("sqlite", database)

    def sqlite_man(query: Query) -> int:
        sql = eager_query_to_sql(query, database)
        return len(sqlite.connection.execute(sql).fetchall())

    def rdb_hash_man(query: Query) -> int:
        plan = eager_aggregation(query, database, grouping="hash")
        return len(plan.execute(database))

    runners = [
        *_engines(database, "fdb-factorised", "fdb"),
        (sqlite.name, partial(_count, sqlite, database)),
        ("SQLite man", sqlite_man),
        *_engines(database, "rdb-hash"),
        ("RDB-hash man", rdb_hash_man),
    ]
    report = ExperimentReport("fig6")
    report.results = _measure(runners, queries, repeats, scale)
    _table(
        report,
        AGG_QUERIES,
        f"Figure 6 — AGG queries on flat input (scale {scale:g}); "
        "'man' = manually optimised (eager) plans",
    )
    return report


# ---------------------------------------------------------------------------
# Experiment 3 / Figure 7: AGG+ORD queries on the factorised view
# ---------------------------------------------------------------------------
def run_fig7(scale: float = SCALE, repeats: int = REPEATS) -> ExperimentReport:
    """Q6-Q9: order-by on top of the aggregate queries."""
    database = build_workload_database(scale=scale)
    names = AGG_QUERIES[1:3] + AGG_ORD_QUERIES
    report = ExperimentReport("fig7")
    report.results = _measure(
        _engines(database, "fdb", "sqlite", "rdb", "rdb-hash"),
        _workload(names),
        repeats,
        scale,
    )
    _table(
        report,
        names,
        f"Figure 7 — AGG+ORD queries on factorised view R1 (scale {scale:g}) "
        "(Q2/Q3 shown for the no-order baseline)",
    )
    return report


# ---------------------------------------------------------------------------
# Experiment 4 / Figure 8: ORD queries, with and without LIMIT 10
# ---------------------------------------------------------------------------
def run_fig8(scale: float = SCALE, repeats: int = REPEATS) -> ExperimentReport:
    """Q10-Q13 on the sorted views, plus their LIMIT-10 variants."""
    database = build_workload_database(scale=scale)
    queries = _workload(ORD_QUERIES)
    limited = {name: query.with_limit(10) for name, query in queries.items()}
    report = ExperimentReport("fig8")
    for label, run in _engines(database, "fdb", "sqlite", "rdb"):
        report.results += _measure([(label, run)], queries, repeats, scale)
        report.results += _measure(
            [(f"{label} lim", run)], limited, repeats, scale
        )
    _table(
        report,
        ORD_QUERIES,
        f"Figure 8 — ORD queries ± LIMIT 10 (scale {scale:g})",
    )
    return report


# ---------------------------------------------------------------------------
# Optimiser study (Section 5; the paper's online appendix)
# ---------------------------------------------------------------------------
def run_optimizer_study(scale: float = 0.25) -> ExperimentReport:
    """Greedy vs exhaustive plan costs on the AGG workload.

    The paper states that for all benchmark queries the greedy heuristic
    finds plans that are optimal under the asymptotic size-bound metric;
    this study recomputes both and compares their costs.
    """
    from repro.core.cost import Hypergraph, plan_cost, s_parameter
    from repro.core.optimizer import ExhaustiveOptimizer, GreedyOptimizer, PlanContext
    from repro.core.aggregates import planner_components

    database = build_workload_database(scale=scale)
    fact = database.get_factorised("R1")
    hypergraph = Hypergraph(
        {
            "Orders": ("customer", "date", "package"),
            "Packages": ("package", "item"),
            "Items": ("item", "price"),
        }
    )
    report = ExperimentReport("optimizer")
    cells = {}
    rows = []
    for name in AGG_QUERIES + AGG_ORD_QUERIES:
        query = WORKLOAD[name].query
        aliases = {s.alias for s in query.aggregates}
        ctx = PlanContext(
            hypergraph=hypergraph,
            kept=frozenset(query.group_by),
            functions=planner_components(query.aggregates),
            order=tuple(
                k for k in query.order_by if k.attribute not in aliases
            ),
        )
        greedy_plan = GreedyOptimizer().plan(fact.ftree, ctx)
        exhaustive_plan = ExhaustiveOptimizer().plan(fact.ftree, ctx)
        greedy_trees = [p.tree for p in greedy_plan.place(fact.ftree)]
        exhaustive_trees = [p.tree for p in exhaustive_plan.place(fact.ftree)]
        greedy_cost = plan_cost(greedy_trees, hypergraph)
        exhaustive_cost = plan_cost(exhaustive_trees, hypergraph)
        # The paper's optimality claim is under the *asymptotic* bounds
        # metric: the dominant exponent across intermediate results.
        greedy_exp = max(
            (s_parameter(t, hypergraph) for t in greedy_trees), default=0.0
        )
        exhaustive_exp = max(
            (s_parameter(t, hypergraph) for t in exhaustive_trees), default=0.0
        )
        rows.append(name)
        cells[(name, "greedy steps")] = str(len(greedy_plan))
        cells[(name, "greedy cost")] = f"{greedy_cost:.3g}"
        cells[(name, "exhaustive cost")] = f"{exhaustive_cost:.3g}"
        cells[(name, "greedy exp")] = f"{greedy_exp:.2f}"
        cells[(name, "exhaustive exp")] = f"{exhaustive_exp:.2f}"
        cells[(name, "greedy optimal")] = str(
            greedy_exp <= exhaustive_exp + 1e-9
        )
        report.extras[name] = {
            "greedy_cost": greedy_cost,
            "exhaustive_cost": exhaustive_cost,
            "greedy_exponent": greedy_exp,
            "exhaustive_exponent": exhaustive_exp,
        }
    report.table = render_table(
        "Optimiser study — greedy vs exhaustive (size-bound metric; "
        "optimality is under the asymptotic exponent, as in the paper)",
        rows,
        [
            "greedy steps",
            "greedy cost",
            "exhaustive cost",
            "greedy exp",
            "exhaustive exp",
            "greedy optimal",
        ],
        cells,
        "query",
    )
    return report


def run_all(
    scale: float = SCALE,
    scales: Sequence[float] = SCALES,
    repeats: int = REPEATS,
    print_tables: bool = True,
) -> dict[str, ExperimentReport]:
    """Run every experiment: the sweeps at ``scales``, the single-scale
    figures at ``scale``, each measurement best of ``repeats``."""
    reports = {
        "sizes": run_sizes(scales),
        "fig4": run_fig4(scales, repeats),
        "fig5": run_fig5(scale, repeats),
        "fig6": run_fig6(scale, repeats),
        "fig7": run_fig7(scale, repeats),
        "fig8": run_fig8(scale, repeats),
        "optimizer": run_optimizer_study(),
    }
    if print_tables:
        for report in reports.values():
            print(report.table)
            print()
    return reports
