"""The thirteen workload queries of Figure 3 and their materialised views.

    R1 = Orders ⋈ Items ⋈ Packages                 (factorised over T)
    R2 = o_{package, date, item}(R1)               (sorted view of R1)
    R3 = o_{date, customer, package}(Orders)       (sorted view of Orders)

    AGG      Q1 = ϖ_{package, date, customer; sum(price)}(R1)
             Q2 = ϖ_{customer; revenue ← sum(price)}(R1)
             Q3 = ϖ_{date, package; sum(price)}(R1)
             Q4 = ϖ_{package; sum(price)}(R1)
             Q5 = ϖ_{sum(price)}(R1)
    AGG+ORD  Q6 = o_customer(Q2)
             Q7 = o_revenue(Q2)
             Q8 = o_{date, package}(Q3)
             Q9 = o_{package, date}(Q3)
    ORD      Q10 = R2  (enumerated in its own order)
             Q11 = o_{package, item, date}(R2)
             Q12 = o_{date, package, item}(R2)
             Q13 = o_{customer, date, package}(R3)

The factorised views use the Section 6 f-tree T: package at the root
with the date → customer and item → price branches, mirroring T1 of the
introduction with pizza replaced by package.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.build import factorise, factorise_path
from repro.core.ftree import FTree, build_ftree
from repro.data.generator import GeneratedData, GeneratorConfig, generate
from repro.database import Database
from repro.query import Query, aggregate
# Not called here: perfbench's set-up tracer wraps it by name in this
# namespace, with generate, sort_relation, factorise and factorise_path.
from repro.relational.operators import multiway_join  # noqa: F401
from repro.relational.sort import SortKey, sort_relation


def section6_ftree() -> FTree:
    """The f-tree T of Section 6 for R1 (package root, two branches)."""
    return build_ftree(
        [("package", [("date", ["customer"]), ("item", ["price"])])],
        keys={
            "package": {"Orders", "Packages"},
            "date": {"Orders"},
            "customer": {"Orders"},
            "item": {"Packages", "Items"},
            "price": {"Items"},
        },
    )


@dataclass
class Workload:
    """One named query of Figure 3 with its experiment group."""

    name: str
    group: str  # "AGG", "AGG+ORD" or "ORD"
    query: Query

    def __str__(self) -> str:
        return f"{self.name} [{self.group}]: {self.query}"


def _sum_price(*group: str, alias: str = "sum(price)") -> tuple:
    return (aggregate("sum", "price", alias),)


def figure3_queries() -> dict[str, Workload]:
    """All thirteen queries, keyed Q1..Q13."""
    queries: dict[str, Workload] = {}

    def add(name: str, group: str, query: Query) -> None:
        queries[name] = Workload(name, group, query)

    # -- AGG ------------------------------------------------------------
    add(
        "Q1",
        "AGG",
        Query(
            relations=("R1",),
            group_by=("package", "date", "customer"),
            aggregates=_sum_price(),
            name="Q1",
        ),
    )
    add(
        "Q2",
        "AGG",
        Query(
            relations=("R1",),
            group_by=("customer",),
            aggregates=(aggregate("sum", "price", "revenue"),),
            name="Q2",
        ),
    )
    add(
        "Q3",
        "AGG",
        Query(
            relations=("R1",),
            group_by=("date", "package"),
            aggregates=_sum_price(),
            name="Q3",
        ),
    )
    add(
        "Q4",
        "AGG",
        Query(
            relations=("R1",),
            group_by=("package",),
            aggregates=_sum_price(),
            name="Q4",
        ),
    )
    add(
        "Q5",
        "AGG",
        Query(relations=("R1",), aggregates=_sum_price(), name="Q5"),
    )

    # -- AGG+ORD ---------------------------------------------------------
    add("Q6", "AGG+ORD", queries["Q2"].query.with_order(["customer"]))
    add("Q7", "AGG+ORD", queries["Q2"].query.with_order(["revenue"]))
    add("Q8", "AGG+ORD", queries["Q3"].query.with_order(["date", "package"]))
    add("Q9", "AGG+ORD", queries["Q3"].query.with_order(["package", "date"]))
    for name in ("Q6", "Q7", "Q8", "Q9"):
        queries[name] = Workload(
            name, "AGG+ORD", _renamed(queries[name].query, name)
        )

    # -- ORD --------------------------------------------------------------
    add(
        "Q10",
        "ORD",
        Query(
            relations=("R2",),
            order_by=(SortKey("package"), SortKey("date"), SortKey("item")),
            name="Q10",
        ),
    )
    add(
        "Q11",
        "ORD",
        Query(
            relations=("R2",),
            order_by=(SortKey("package"), SortKey("item"), SortKey("date")),
            name="Q11",
        ),
    )
    add(
        "Q12",
        "ORD",
        Query(
            relations=("R2",),
            order_by=(SortKey("date"), SortKey("package"), SortKey("item")),
            name="Q12",
        ),
    )
    add(
        "Q13",
        "ORD",
        Query(
            relations=("R3",),
            order_by=(
                SortKey("customer"),
                SortKey("date"),
                SortKey("package"),
            ),
            name="Q13",
        ),
    )
    return queries


def _renamed(query: Query, name: str) -> Query:
    from dataclasses import replace

    return replace(query, name=name)


def expression_queries() -> dict[str, Workload]:
    """Expression-aggregate workloads (group "EXPR", beyond Figure 3).

    Section 3.2 evaluates aggregates over arithmetic expressions on
    the factorisation; these queries exercise the expression surface
    end to end — linear arithmetic, products of a repeated attribute,
    composite averages, computed output columns, and expression
    selections — over the same scaled views as Q1–Q13.
    """
    from repro.expr import col
    from repro.query import Comparison, ComputedColumn

    price = col("price")
    queries: dict[str, Workload] = {}

    def add(name: str, query: Query) -> None:
        queries[name] = Workload(name, "EXPR", query)

    add(
        "E1",
        Query(
            relations=("R1",),
            group_by=("customer",),
            aggregates=(aggregate("sum", price * 2 + 1, "adjusted"),),
            name="E1",
        ),
    )
    add(
        "E2",
        Query(
            relations=("R1",),
            group_by=("package",),
            aggregates=(aggregate("sum", price * price, "sum_sq"),),
            name="E2",
        ),
    )
    add(
        "E3",
        Query(
            relations=("R1",),
            group_by=("date",),
            aggregates=(aggregate("avg", price * 3 - 1, "mean_scaled"),),
            name="E3",
        ),
    )
    add(
        "E4",
        Query(
            relations=("R1",),
            projection=("customer",),
            computed=(ComputedColumn(price / 2, "half_price"),),
            name="E4",
        ),
    )
    add(
        "E5",
        Query(
            relations=("R1",),
            comparisons=(Comparison(price * 2, ">", 20),),
            group_by=("customer",),
            aggregates=(aggregate("sum", "price", "revenue"),),
            name="E5",
        ),
    )
    return queries


WORKLOAD = figure3_queries()

AGG_QUERIES = ("Q1", "Q2", "Q3", "Q4", "Q5")
AGG_ORD_QUERIES = ("Q6", "Q7", "Q8", "Q9")
ORD_QUERIES = ("Q10", "Q11", "Q12", "Q13")

EXPRESSION_WORKLOAD = expression_queries()
EXPRESSION_QUERIES = tuple(EXPRESSION_WORKLOAD)

#: The full catalogue: Figure 3 plus the expression workloads.
FULL_WORKLOAD = {**WORKLOAD, **EXPRESSION_WORKLOAD}


def build_workload_database(
    scale: float = 1.0,
    seed: int = 2013,
    materialise_views: bool = True,
    data: GeneratedData | None = None,
) -> Database:
    """Database with the generated base relations and views R1, R2, R3.

    ``materialise_views`` registers both representations of each view:
    factorised (for FDB) and flat (for the relational engines) — the
    read-optimised scenario of the paper.  R1 is built by factorised
    join of Orders, Packages and Items over the Section 6 f-tree T,
    never by a flat join.  R2 is the same factorisation object
    registered a second time: T supports both Q10's and Q11's orders
    (the paper's "simultaneous support for several orders"), so the
    sorted view needs no copy of its own.  R3 is a path factorisation
    of Orders in its sort order.  The flat copies of R1 and R2 are
    deferred: they are derived from the factorisation, sorted by
    ``(package, date, item)``, on first :meth:`Database.flat`.
    """
    if data is None:
        data = generate(GeneratorConfig(scale=scale, seed=seed))
    database = Database(data.relations())
    if not materialise_views:
        return database

    inputs = [data.orders, data.packages, data.items]
    r1 = factorise(inputs, section6_ftree())
    schema = list(dict.fromkeys(a for base in inputs for a in base.schema))
    for name in ("R1", "R2"):
        database.add_factorised(name, r1)
        database.defer_flat(name, schema, order=["package", "date", "item"])

    r3 = sort_relation(data.orders, ["date", "customer", "package"])
    r3.name = "R3"
    database.add_relation(r3)
    database.add_factorised(
        "R3",
        factorise_path(r3, key="Orders", order=["date", "customer", "package"]),
    )
    return database
