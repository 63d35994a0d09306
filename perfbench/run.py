"""One benchmark for the whole engine.

    python3 perfbench/run.py                      every workload, untraced then traced
    python3 perfbench/run.py --workload ord_enum  one workload
    python3 perfbench/run.py --traced             only the traced (per-layer) run
    python3 perfbench/run.py --quick              scale 0.25, about a second per loop
    python3 perfbench/run.py --repeat-check       two untraced passes compared with
                                                  the bounds; writes BASELINE.json

Each workload runs in a fresh subprocess (``worker.py``) with
``PYTHONHASHSEED`` pinned, ``PYTHONPATH`` set to ``src`` and
``REPRO_NUMPY``/``REPRO_PURE_COVER`` removed from the environment.
Every metric is printed by name with its unit; results are checked
against sqlite and a run with a non-zero ``error_rate`` exits non-zero.

With one workload and one mode the last line of standard output is the
JSON object ``BENCHMARK.json``'s driver reads:
``--workload NAME --seed N --seconds S --trace 0|1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

import spec as specification

CLEARED_ENVIRONMENT = ("REPRO_NUMPY", "REPRO_PURE_COVER")
WORKER_TIMEOUT = 170  # seconds; the driver allows 180 per run


def stamp(seed: int) -> dict:
    """Host fingerprint, commit and seed of a run."""
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=specification.ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "nproc": os.cpu_count(),
        "cpu": model or platform.processor(),
        "python": platform.python_version(),
        "git_sha": sha or None,
        "seed": seed,
        "environment": {
            name: os.environ.get(name) for name in CLEARED_ENVIRONMENT + ("REPRO_OBS",)
        },
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_worker(workload: str, seed: int, seconds: float, trace: int, quick: bool) -> dict:
    """Run one workload in a fresh subprocess; returns what it printed."""
    environment = {
        name: value
        for name, value in os.environ.items()
        if name not in CLEARED_ENVIRONMENT
    }
    environment["PYTHONHASHSEED"] = "0"
    source = str(specification.ROOT / "src")
    inherited = environment.get("PYTHONPATH")
    environment["PYTHONPATH"] = (
        source + os.pathsep + inherited if inherited else source
    )
    command = [
        sys.executable,
        str(specification.HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    if quick:
        command.append("--quick")
    finished = subprocess.run(
        command,
        env=environment,
        stdout=subprocess.PIPE,
        text=True,
        timeout=WORKER_TIMEOUT,
        check=True,
    )
    return json.loads(finished.stdout.splitlines()[-1])


def show(result: dict) -> None:
    mode = "traced" if result["trace"] else "untraced"
    print(
        f"== {result['workload']} · {mode} · seed {result['seed']} · "
        f"scale {result['scale']} · {result['seconds']} s =="
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:<42} {metric['value']:>16.6g} {metric['unit']}")
    print(
        f"  attempted {result['attempted']}, failed {result['failed']}; "
        + ", ".join(f"{k} {v}" for k, v in result["samples"].items()
                    if not isinstance(v, list))
    )
    for error in result["errors"]:
        print(f"  ! {error}")
    sys.stdout.flush()


def driver_line(result: dict, declared: list[dict]) -> str:
    """The one JSON object the driver reads from the last line."""
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric["name"]: result["metrics"][metric["name"]]
            for metric in declared
        },
    })


def run_pass(workloads, seed, seconds, trace, quick) -> dict:
    results = {}
    for workload in workloads:
        results[workload] = run_worker(workload, seed, seconds, trace, quick)
        show(results[workload])
    return results


def save(document: dict, path) -> None:
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path.relative_to(specification.ROOT)}")


def repeat_check(spec: dict, workloads, seed, seconds, quick) -> int:
    """Two untraced passes of the same code, compared with the bounds."""
    first = run_pass(workloads, seed, seconds, 0, quick)
    second = run_pass(workloads, seed, seconds, 0, quick)
    traced = run_pass(workloads, seed, seconds, 1, quick)
    exceeded = 0
    print(f"{'workload':<14}{'metric':<16}{'first':>14}{'second':>14}"
          f"{'difference':>12}{'bound':>8}")
    for workload in workloads:
        for metric in specification.end_to_end(spec):
            name, bound = metric["name"], metric["bound"]
            if name not in first[workload]["metrics"]:
                continue
            a = first[workload]["metrics"][name]["value"]
            b = second[workload]["metrics"][name]["value"]
            if name == "error_rate":
                difference, over = max(a, b), max(a, b) > bound
            else:
                difference = abs(b - a) / a if a else 0.0
                over = difference > bound
            exceeded += over
            print(f"{workload:<14}{name:<16}{a:>14.5g}{b:>14.5g}"
                  f"{difference:>11.1%} {bound:>7.0%}{'  OVER' if over else ''}")
    if not quick:
        save(
            {"stamp": stamp(seed), "untraced": [first, second], "traced": traced},
            specification.HERE / "BASELINE.json",
        )
    return 1 if exceeded else 0


def main(argv=None) -> int:
    spec = specification.load()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=2013)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--repeat-check", action="store_true")
    args = parser.parse_args(argv)

    if not (specification.ROOT / "src" / "repro").is_dir():
        print("perfbench: src/repro is not here; nothing to measure", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = specification.QUICK_SECONDS if args.quick else spec["run_seconds"]
    workloads = [args.workload] if args.workload else names
    if args.repeat_check:
        return repeat_check(spec, workloads, args.seed, seconds, args.quick)

    trace = 1 if args.traced else args.trace
    modes = [0, 1] if trace is None else [trace]
    passes = {mode: run_pass(workloads, args.seed, seconds, mode, args.quick)
              for mode in modes}
    results = [result for done in passes.values() for result in done.values()]
    save(
        {"stamp": stamp(args.seed), "results": results},
        specification.OUT / f"run-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json",
    )
    if len(results) == 1:
        declared = spec["per_layer"] if modes[0] else spec["end_to_end"]
        print(driver_line(results[0], declared))
    return 0 if all(result["correct"] for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())
