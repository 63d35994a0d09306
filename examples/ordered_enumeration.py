"""Ordering and top-k on factorised views: the Experiment 4 story.

A factorisation can serve *several* sort orders at once, and switching
to an unsupported order needs only partial restructuring (a swap or
two) instead of a full re-sort.  This example walks through Q10-Q13 on
the sorted views R2 and R3 and shows constant-delay top-k enumeration.

Run:  python examples/ordered_enumeration.py [scale]
"""

import sys
import time

from repro import FDBEngine
from repro.core import operators as ops
from repro.core.enumerate import (
    iter_tuples,
    restructure_for_order,
    supports_order,
)
from repro.data.workloads import WORKLOAD, build_workload_database


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.5
    db = build_workload_database(scale=scale)
    fact = db.get_factorised("R2")
    print("R2's factorisation tree:")
    print(fact.ftree.pretty())
    print()

    for order in [
        ("package", "date", "item"),  # Q10: the stored order
        ("package", "item", "date"),  # Q11: also supported, for free
        ("date", "package", "item"),  # Q12: needs one swap
    ]:
        supported = supports_order(fact.ftree, list(order))
        swaps = restructure_for_order(fact.ftree, list(order))
        print(
            f"order {order}: supported={supported}, "
            f"swaps needed={swaps if swaps else 'none'}"
        )
    print()

    print("Top-3 tuples in the Q12 order (restructure + constant delay):")
    q12 = WORKLOAD["Q12"].query.with_limit(3)
    fdb = FDBEngine()
    start = time.perf_counter()
    rows = fdb.execute(q12, db).rows
    elapsed = time.perf_counter() - start
    for row in rows:
        print(f"  {row}")
    print(f"  ({elapsed * 1000:.1f} ms including the swap)\n")

    print("Q13: re-sorting Orders by (customer, date, package)")
    r3 = db.get_factorised("R3")
    print("stored as the path", " → ".join(r3.schema()))
    start = time.perf_counter()
    swapped = ops.swap(r3.ftree, "customer").run(r3)  # the single swap of the paper
    elapsed = time.perf_counter() - start
    print(f"one swap restructures it in {elapsed * 1000:.1f} ms;")
    first = next(iter_tuples(swapped, ["customer", "date", "package"]))
    print(f"first tuple in the new order: {first}")
    print(
        "package lists under each (date, customer) pair were reused, "
        "not re-sorted (Experiment 4)."
    )


if __name__ == "__main__":
    main()
