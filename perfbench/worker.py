"""One workload in one mode, in this process; prints one JSON object.

``run.py`` starts this file in a fresh subprocess per workload with
``PYTHONHASHSEED`` pinned and ``PYTHONPATH`` pointing at ``src``.

Untraced mode sets the workload up (several times; ``setup_s`` is the
median), freezes the garbage collector's view of the set-up objects,
runs the closed loop for ``--seconds`` and then checks the results
against sqlite.  It goes through the public session/HTTP API only.

Traced mode sets up once with spans around the build phases, runs the
loop untraced for one share of ``--seconds`` and again with spans at
every layer boundary (``tracing.py``), and reports per-layer self time
as mean milliseconds per read operation — means, because the means of
the layers add up to the mean of the operation and medians do not.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

import spec as specification
from repro import connect
from tracing import Tracer, install_query_spans, install_setup_spans
from workloads import WORKLOADS, Log

_now = time.perf_counter

#: The layers whose times add up to one read operation.
OP_LAYERS = (
    "sql.parse",
    "plan.canonical",
    "stats.lookup",
    "core.optimizer.planning_inputs",
    "core.optimizer.search",
    "core.optimizer.compile",
    "core.engine.execute",
)


def percentile(ordered: list[float], share: float) -> float:
    """Linear interpolation between the two nearest ranks."""
    if not ordered:
        return 0.0
    rank = share * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_share(samples: int) -> float:
    """0.95, or the highest share that leaves ten samples beyond it."""
    if samples >= 200:
        return 0.95
    return max(0.5, 1.0 - 10.0 / max(samples, 1))


def latency(seconds: list[float]) -> tuple[float, float]:
    """(median, tail) in milliseconds."""
    ordered = sorted(seconds)
    return (
        percentile(ordered, 0.5) * 1000.0,
        percentile(ordered, tail_share(len(ordered))) * 1000.0,
    )


def mean_ms(total_seconds: float, count: int) -> float:
    return total_seconds * 1000.0 / count if count else 0.0


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# ---------------------------------------------------------------------------
# Untraced: the end-to-end metrics
# ---------------------------------------------------------------------------
def run_untraced(workload, seconds: float, min_ops: int, repeats: int) -> dict:
    set_ups = []
    for _ in range(repeats):
        workload.close()
        gc.collect()
        began = _now()
        workload.set_up()
        set_ups.append(_now() - began)
    gc.collect()
    gc.freeze()
    log = workload.measure(seconds, min_ops)
    peak = workload.peak_rss_mb()
    workload.check(log)
    workload.close()

    read_p50, read_tail = latency(log.read_s)
    ops_per_s, rows_per_s = log.rates()
    metrics = {
        "setup_s": statistics.median(set_ups),
        "ops_per_s": ops_per_s,
        "read_p50_ms": read_p50,
        "read_p95_ms": read_tail,
        "rows_per_s": rows_per_s,
        "peak_rss_mb": peak,
        "error_rate": ratio(log.failed, log.attempted),
    }
    if log.write_s:
        metrics["write_p50_ms"], metrics["write_p95_ms"] = latency(log.write_s)
    return {
        "metrics": metrics,
        "log": log,
        "samples": {
            "set_ups": set_ups,
            "reads": len(log.read_s),
            "read_tail_percentile": 100.0 * tail_share(len(log.read_s)),
            "writes": len(log.write_s),
            "write_tail_percentile": 100.0 * tail_share(len(log.write_s)),
            "measured_seconds": log.seconds,
            "rounds": log.rounds,
        },
    }


# ---------------------------------------------------------------------------
# Traced: the per-layer metrics
# ---------------------------------------------------------------------------
_STEP_CLASSES = {"χ": "swap", "γ": "aggregate", "σ": "select", "m": "merge_absorb",
                 "a": "merge_absorb"}


class StepObserver:
    """Reads what each executed Result says about its f-plan."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.step_seconds: dict[str, float] = defaultdict(float)
        self.peak_singletons = 0
        self.peak_bytes = 0
        self.plan_steps: list[int] = []
        self.qerrors: list[float] = []

    def __call__(self, op, out) -> None:
        self.tracer.op += 1
        trace = getattr(out, "trace", None)
        lifecycle = getattr(out, "lifecycle", None)
        if trace is None or getattr(lifecycle, "result_cache", "") == "hit":
            return  # a cached result carries the trace of an earlier run
        for label, seconds in zip(trace.steps, trace.seconds):
            self.step_seconds[_STEP_CLASSES.get(label[0], "other")] += seconds
        self.plan_steps.append(len(out.plan) if out.plan is not None else 0)
        if trace.sizes:
            self.peak_singletons = max(self.peak_singletons, max(trace.sizes))
            self.peak_bytes = max(self.peak_bytes, max(trace.bytes))
            estimated = (trace.provenance or {}).get("estimated_size")
            if estimated and trace.sizes[-1]:
                self.qerrors.append(estimated / trace.sizes[-1])


def build_facts(database) -> dict:
    """Size of the factorised views against their flat form."""
    singletons = resident = flat_values = 0
    for name in ("R1", "R2", "R3"):
        view_singletons, view_bytes = database.get_factorised(name).size_info()
        singletons += view_singletons
        resident += view_bytes
        flat = database.flat(name)
        flat_values += len(flat.rows) * len(flat.schema)
    return {
        "core.build.singletons": singletons,
        "core.build.singletons_per_flat_value": ratio(singletons, flat_values),
        "core.build.store_bytes": resident,
    }


def enumerate_probe(database, log: Log) -> tuple[float, float]:
    """(mean ms per read op, µs per row) to enumerate the results.

    The flat engine enumerates inside ``execute_planned``; here the
    same statements run on the engine with factorised output and only
    ``FactorisedResult.iter_tuples()`` is timed, weighted by how often
    the loop ran each statement.
    """
    statements: Counter = Counter()
    for key, (op, _) in log.first.items():
        statements[(op.sql, tuple(sorted((op.params or {}).items())))] += (
            log.count[key]
        )
    weighted_seconds = weighted_rows = weight = 0.0
    with connect(database, engine="fdb-factorised", cache=False) as probe:
        for (sql, params), count in statements.most_common(40):
            factorised = probe.sql(sql, params=dict(params)).factorised
            if factorised is None:
                continue
            began = _now()
            rows = len(list(factorised.iter_tuples()))
            weighted_seconds += (_now() - began) * count
            weighted_rows += rows * count
            weight += count
    return (
        mean_ms(weighted_seconds, weight),
        ratio(weighted_seconds * 1e6, weighted_rows),
    )


def cache_ratios(before: dict, after: dict) -> dict:
    def delta(cache, index):
        return after[cache][index] - before[cache][index]

    return {
        "plan.plan_cache_hit_ratio": ratio(
            delta("plan", 0), delta("plan", 0) + delta("plan", 1)
        ),
        "plan.result_cache_hit_ratio": ratio(
            delta("result", 0), delta("result", 0) + delta("result", 1)
        ),
        "plan.result_cache_invalidations": delta("result", 2),
    }


def run_traced(workload, seconds: float, min_ops: int, dump_path) -> dict:
    tracer = Tracer()
    install_setup_spans(tracer)
    workload.set_up()
    tracer.uninstall()
    metrics = {
        "data.generate_s": tracer.seconds("data.generate"),
        "relational.join_s": tracer.seconds("relational.join"),
        "core.build.factorise_s": tracer.seconds("core.build.factorise"),
        "api.warmup_s": workload.warmup_seconds,
    }
    metrics.update(build_facts(workload.database))
    maintenance = workload.database.maintenance
    gc.collect()
    gc.freeze()

    share = seconds / workload.TRACE_PHASES
    caches_before = workload.cache_stats()
    plain = workload.measure(share, min_ops)
    tracer.reset()
    observer = StepObserver(tracer)
    traced, layered, extras = workload.traced(share, min_ops, tracer, observer)
    tracer.uninstall()
    metrics.update(cache_ratios(caches_before, extras.pop("caches")))
    for name in ("http_overhead_ms", "response_bytes", "pool_wait_ms"):
        metrics["server." + name] = 0.0  # no server in the in-process workloads
    metrics.update(extras)

    reads = len(layered.read_s)
    for name in OP_LAYERS:
        metrics[name + "_ms"] = mean_ms(tracer.seconds(name), reads)
    steps = observer.step_seconds
    steps_ms = mean_ms(sum(steps.values()), reads)
    metrics["core.kernels.steps_ms"] = steps_ms
    for name in ("aggregate", "swap", "select", "merge_absorb"):
        metrics[f"core.kernels.{name}_ms"] = mean_ms(steps[name], reads)
    metrics["core.kernels.peak_singletons"] = observer.peak_singletons
    metrics["core.kernels.peak_bytes"] = observer.peak_bytes
    metrics["core.engine.shape_ms"] = metrics["core.engine.execute_ms"] - steps_ms
    metrics["core.optimizer.plan_steps"] = (
        statistics.fmean(observer.plan_steps) if observer.plan_steps else 0.0
    )
    metrics["core.optimizer.est_qerror"] = (
        statistics.median(observer.qerrors) if observer.qerrors else 0.0
    )
    metrics["core.enumerate.iter_ms"], metrics["core.enumerate.us_per_row"] = (
        enumerate_probe(workload.database, layered)
    )

    # What the layers above leave unattributed: the session and API glue
    # between them, measured in the same phase as the layers.
    metrics["api.overhead_ms"] = mean_ms(sum(layered.read_s), reads) - sum(
        metrics[name + "_ms"] for name in OP_LAYERS
    )
    metrics["trace.overhead_ratio"] = ratio(
        statistics.median(traced.read_s), statistics.median(plain.read_s)
    )

    writes = len(layered.write_s)
    metrics["ivm.apply_ms"] = mean_ms(tracer.seconds("ivm.apply"), writes)
    metrics["ivm.nodes_touched"] = maintenance.nodes_touched
    metrics["ivm.rebuilds"] = maintenance.rebuilds
    metrics["ivm.incremental_ratio"] = maintenance.incremental_ratio
    metrics["write_p50_ms"], metrics["write_p95_ms"] = (
        latency(plain.write_s) if plain.write_s else (0.0, 0.0)
    )

    samples = {
        "reads_untraced": len(plain.read_s),
        "reads_traced": len(traced.read_s),
        "reads_layered": reads,
        "writes_layered": writes,
        "spans": len(tracer.spans),
    }
    checked = plain
    checked.merge(traced)
    oracle_seconds = workload.check(checked)
    workload.close()
    metrics["baseline.sqlite_p50_ms"] = (
        statistics.median(oracle_seconds) * 1000.0 if oracle_seconds else 0.0
    )
    samples["oracle_statements"] = len(oracle_seconds)
    tracer.dump(dump_path)
    return {"metrics": metrics, "log": checked, "samples": samples}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    scale = specification.QUICK_SCALE if args.quick else specification.FULL_SCALE
    min_ops = specification.QUICK_MIN_OPS if args.quick else 0
    workload = WORKLOADS[args.workload](scale, args.seed)
    try:
        if args.trace:
            specification.OUT.mkdir(exist_ok=True)
            outcome = run_traced(
                workload,
                args.seconds,
                min_ops,
                specification.OUT / f"spans-{args.workload}-{args.seed}.json",
            )
        else:
            repeats = 1 if args.quick else specification.SETUP_REPEATS
            outcome = run_untraced(workload, args.seconds, min_ops, repeats)
    finally:
        workload.close()

    spec = specification.load()
    unit_of = specification.units(spec)
    if args.trace:
        declared = {metric["name"] for metric in spec["per_layer"]}
        if set(outcome["metrics"]) != declared:
            raise SystemExit(
                "per-layer metrics differ from BENCHMARK.json: "
                f"{sorted(set(outcome['metrics']) ^ declared)}"
            )
    log = outcome["log"]
    json.dump(
        {
            "workload": args.workload,
            "seed": args.seed,
            "scale": scale,
            "seconds": args.seconds,
            "trace": args.trace,
            "attempted": log.attempted,
            "failed": log.failed,
            "correct": log.failed == 0,
            "errors": log.errors,
            "metrics": {
                name: {"value": value, "unit": unit_of[name]}
                for name, value in outcome["metrics"].items()
            },
            "samples": outcome["samples"],
        },
        sys.stdout,
    )
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
