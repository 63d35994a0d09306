"""Optimiser study — cost-based vs greedy vs exhaustive plan search.

Two workloads, three strategies:

- the fig4 named queries end to end through
  ``FDBEngine.execute_planned`` — the steady-state session path, where
  the plan cache has retained the compiled plan and every run replays
  it against fresh inputs — plus the one-off optimisation time per
  strategy (``FDBEngine.compile`` after a warm statistics cache), and
- a skewed synthetic workload (a selection between a high-distinct and
  a low-distinct branch where the asymptotic metric ties), where plan
  quality is the peak intermediate singleton count from the execution
  trace.

The PR's acceptance gate (non-quick runs): the cost-based strategy is
never more than 10% slower end-to-end than the best static strategy on
any fig4 query (compared at the per-strategy noise floor, the minimum
interleaved sample), and it picks a measurably smaller plan than
greedy on the skewed workload.

Writes ``BENCH_PR10.json``.

Usage::

    python benchmarks/bench_optimizer.py            # full study + gate
    python benchmarks/bench_optimizer.py --quick    # CI smoke, no gate
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.build import factorise  # noqa: E402
from repro.core.engine import FDBEngine  # noqa: E402
from repro.core.ftree import build_ftree  # noqa: E402
from repro.data.workloads import WORKLOAD, build_workload_database  # noqa: E402
from repro.database import Database  # noqa: E402
from repro.query import Equality, Query  # noqa: E402
from repro.relational.relation import Relation  # noqa: E402
from repro.stats import stats_cache  # noqa: E402

STRATEGIES = ("greedy", "exhaustive", "cost")


def _median_ms(samples) -> float:
    return statistics.median(samples) * 1000.0


def _time(fn, repeats) -> list[float]:
    fn()  # warm-up (also warms the statistics cache for "cost")
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return samples


def _bench_query(database, query, repeats):
    """Per-strategy medians and minima with interleaved sampling.

    One sample per strategy per round (rather than one block per
    strategy) so slow machine drift hits every strategy equally.  The
    medians are the headline numbers; the gate compares per-strategy
    *minimum* samples — the classic noise-floor estimate (cf. timeit's
    guidance) — because a worst-of-13 median statistic on a shared
    machine trips on scheduling spikes, not on plan quality.
    """
    engines = {
        strategy: FDBEngine(output="flat", optimizer=strategy)
        for strategy in STRATEGIES
    }
    compiled = {
        strategy: engine.compile(query, database)
        for strategy, engine in engines.items()
    }
    samples = {strategy: [] for strategy in STRATEGIES}
    optimise_samples = {strategy: [] for strategy in STRATEGIES}
    for strategy, engine in engines.items():  # warm-up
        engine.execute_planned(compiled[strategy], query, database)
    for _ in range(repeats):
        for strategy, engine in engines.items():
            start = time.perf_counter()
            engine.execute_planned(compiled[strategy], query, database)
            samples[strategy].append(time.perf_counter() - start)
            start = time.perf_counter()
            engine.compile(query, database)
            optimise_samples[strategy].append(time.perf_counter() - start)
    return (
        {strategy: _median_ms(samples[strategy]) for strategy in STRATEGIES},
        {
            strategy: min(samples[strategy]) * 1000.0
            for strategy in STRATEGIES
        },
        {
            strategy: _median_ms(optimise_samples[strategy])
            for strategy in STRATEGIES
        },
    )


# ---------------------------------------------------------------------------
# Skewed synthetic workload: asymptotic tie, data-dependent winner
# ---------------------------------------------------------------------------
def _block(j, a_vals, xs, c_vals, ys):
    left = [(a, x) for a in a_vals for x in xs]
    right = [(c, y) for c in c_vals for y in ys]
    return [(j, a, x, c, y) for (a, x) in left for (c, y) in right]


def _skew_database(heavy: int) -> Database:
    """V(j, a, x, c, y) over j → (a → x, c → y): ``x`` has ``heavy``
    fresh distinct values per j while ``y`` keeps a 6-value domain, so
    resolving ``x = y`` from the small side is strictly cheaper — a
    difference the asymptotic size bound cannot see (every node has
    ρ* = 1)."""
    rows = []
    for j in range(4):
        rows += _block(
            j,
            [f"a{j}_{i}" for i in range(2)],
            [1000 * j + k for k in range(heavy)],
            [f"c{j}_{i}" for i in range(2)],
            list(range(6)),
        )
    relation = Relation(("j", "a", "x", "c", "y"), rows, name="V")
    tree = build_ftree([("j", [("a", ["x"]), ("c", ["y"])])])
    database = Database([relation])
    database.add_factorised("V", factorise(relation, tree))
    return database


SKEW_QUERY = Query(relations=("V",), equalities=(Equality("x", "y"),))


def _bench_skew(heavy, repeats) -> dict:
    database = _skew_database(heavy)
    out = {"rows": len(database.flat("V").rows), "heavy_distincts": heavy}
    for strategy in STRATEGIES:
        engine = FDBEngine(output="flat", optimizer=strategy)
        compiled = engine.compile(SKEW_QUERY, database)
        _, _, trace = engine.execute_planned(compiled, SKEW_QUERY, database)
        total = _median_ms(
            _time(
                lambda: engine.execute_planned(
                    compiled, SKEW_QUERY, database
                ),
                repeats,
            )
        )
        out[strategy] = {
            "median_ms": total,
            "peak_singletons": max(trace.sizes),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small scale and few repeats (CI smoke; skips the gate)",
    )
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--seed", type=int, default=2013)
    parser.add_argument(
        "--output",
        default=str(
            Path(__file__).resolve().parent.parent / "BENCH_PR10.json"
        ),
    )
    args = parser.parse_args(argv)

    scale = 0.1 if args.quick else 1.0
    repeats = (
        args.repeats if args.repeats is not None else (3 if args.quick else 11)
    )
    names = ("Q2", "Q10") if args.quick else tuple(sorted(WORKLOAD))

    stats_cache().clear()
    database = build_workload_database(scale=scale, seed=args.seed)
    results = []
    worst_ratio = 0.0
    for name in names:
        query = WORKLOAD[name].query
        row = {"query": name, "scale": scale}
        totals, floors, optimise = _bench_query(database, query, repeats)
        for strategy in STRATEGIES:
            row[f"{strategy}_median_ms"] = totals[strategy]
            row[f"{strategy}_min_ms"] = floors[strategy]
            row[f"{strategy}_optimise_ms"] = optimise[strategy]
        best_static = min(row["greedy_min_ms"], row["exhaustive_min_ms"])
        ratio = row["cost_min_ms"] / best_static if best_static else 0.0
        row["cost_over_best_static"] = ratio
        worst_ratio = max(worst_ratio, ratio)
        results.append(row)
        print(
            f"{name:<4} greedy {row['greedy_median_ms']:8.2f} ms  "
            f"exhaustive {row['exhaustive_median_ms']:8.2f} ms  "
            f"cost {row['cost_median_ms']:8.2f} ms  ({ratio:.2f}x best "
            f"floor, optimise {row['cost_optimise_ms']:.3f} ms)"
        )

    skew = _bench_skew(heavy=8 if args.quick else 40, repeats=repeats)
    for strategy in STRATEGIES:
        entry = skew[strategy]
        print(
            f"skew {strategy:<10} {entry['median_ms']:8.2f} ms  "
            f"peak {entry['peak_singletons']} singletons"
        )

    payload = {
        "benchmark": "bench_optimizer",
        "config": {
            "scale": scale,
            "repeats": repeats,
            "seed": args.seed,
            "quick": args.quick,
            "queries": list(names),
        },
        "results": results,
        "skewed": skew,
        "worst_cost_over_best_static": worst_ratio,
    }
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")

    if not args.quick:
        failed = False
        if worst_ratio > 1.10:
            print(
                f"FAIL: cost-based is {worst_ratio:.2f}x the best static "
                "strategy's noise floor on some query (> 1.10x)"
            )
            failed = True
        cost_peak = skew["cost"]["peak_singletons"]
        greedy_peak = skew["greedy"]["peak_singletons"]
        if cost_peak >= greedy_peak:
            print(
                f"FAIL: cost-based peak {cost_peak} singletons is not below "
                f"greedy's {greedy_peak} on the skewed workload"
            )
            failed = True
        if failed:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
