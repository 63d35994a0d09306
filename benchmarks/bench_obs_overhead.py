"""Observability overhead: instrumented vs disabled on the fig4 workload.

Runs every fig4 workload query through the session API twice per mode —
``REPRO_OBS`` disabled (the single-attribute-check no-op fast path) and
enabled (metrics + span trees recorded) — and reports median latencies
side by side.  The PR's acceptance criterion is that the *disabled*
mode keeps the fig4 latencies where the seed had them (< 2% regression,
checked by the driver against the recorded medians) and that enabling
full instrumentation stays cheap.

Caches are disabled so every run measures real evaluation, not a
result-cache hit; the span tree and metric counts are sanity-checked in
each mode (disabled runs must record nothing).

Writes ``BENCH_PR8.json``.

Usage::

    python benchmarks/bench_obs_overhead.py            # fig4 scale (1.0)
    python benchmarks/bench_obs_overhead.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import connect  # noqa: E402
from repro.data.workloads import WORKLOAD, build_workload_database  # noqa: E402
from repro.obs import configure, metrics  # noqa: E402

QUERIES = ("Q1", "Q2", "Q5", "Q6", "Q7", "Q10")


def _sample(database, query, repeats):
    """Median-of-N wall-clock seconds through a cache-free session."""
    session = connect(database, cache=False)
    session.execute(query)  # warm the backend (store registration)
    samples = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = session.execute(query)
        samples.append(time.perf_counter() - start)
    return samples, result


def _count(name):
    return sum(
        sample
        for family in metrics().families()
        if family.name == name
        for _, sample in family.samples()
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small scale and few repeats (CI smoke; relaxes the gate)",
    )
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--seed", type=int, default=2013)
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_PR8.json"),
    )
    args = parser.parse_args(argv)

    scale = args.scale if args.scale is not None else (0.1 if args.quick else 1.0)
    repeats = args.repeats if args.repeats is not None else (3 if args.quick else 9)

    database = build_workload_database(scale=scale, seed=args.seed)
    results = []
    overheads = []
    for name in QUERIES:
        query = WORKLOAD[name].query

        configure(enabled=False)
        before = _count("repro_queries_total")
        disabled_samples, disabled_result = _sample(database, query, repeats)
        assert disabled_result.span is None, "disabled run recorded a span"
        assert _count("repro_queries_total") == before, (
            "disabled run incremented repro_queries_total"
        )

        configure(enabled=True)
        enabled_samples, enabled_result = _sample(database, query, repeats)
        assert enabled_result.span is not None, "enabled run lost its span"

        disabled_ms = statistics.median(disabled_samples) * 1000.0
        enabled_ms = statistics.median(enabled_samples) * 1000.0
        overhead_pct = (
            (enabled_ms - disabled_ms) / disabled_ms * 100.0
            if disabled_ms
            else 0.0
        )
        overheads.append(overhead_pct)
        results.append(
            {
                "query": name,
                "disabled_median_ms": disabled_ms,
                "enabled_median_ms": enabled_ms,
                "overhead_pct": overhead_pct,
                "disabled_samples_ms": [s * 1000.0 for s in disabled_samples],
                "enabled_samples_ms": [s * 1000.0 for s in enabled_samples],
            }
        )
        print(
            f"{name:<4} disabled {disabled_ms:8.2f} ms  "
            f"enabled {enabled_ms:8.2f} ms  ({overhead_pct:+.1f}%)"
        )

    median_overhead = statistics.median(overheads)
    print(f"\nmedian instrumentation overhead: {median_overhead:+.1f}%")

    payload = {
        "benchmark": "bench_obs_overhead",
        "config": {
            "scale": scale,
            "repeats": repeats,
            "seed": args.seed,
            "quick": args.quick,
        },
        "results": results,
        "median_overhead_pct": median_overhead,
    }
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")

    if not args.quick and median_overhead > 10.0:
        print(
            f"FAIL: enabling observability costs {median_overhead:.1f}% "
            "median latency on the fig4 workload (> 10%)"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
