"""Names, units and bounds of everything the benchmark reports.

``BENCHMARK.json`` at the root of the repository is the source of the
workload names, of the end-to-end metrics every workload reports and of
the per-layer metrics.  Its format wants every end-to-end metric on
every workload and never zero, so three end-to-end metrics of the
benchmark live here instead: the two write latencies (``mixed_rw`` is
the only workload that writes) and ``error_rate`` (zero on a correct
run).  The full run and ``--repeat-check`` treat them like the others.
"""

from __future__ import annotations

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: ``bound`` of error_rate is absolute, the others a share of the baseline.
EXTRA_END_TO_END = (
    {"name": "write_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "write_p95_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "error_rate", "unit": "ratio", "better": "lower", "bound": 0.0},
)

QUICK_SCALE = 0.25
FULL_SCALE = 4.0
QUICK_SECONDS = 0.5
QUICK_MIN_OPS = 30
SETUP_REPEATS = 3  # setup_s is the median of this many set-ups per run


def load() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def end_to_end(spec: dict) -> list[dict]:
    return list(spec["end_to_end"]) + list(EXTRA_END_TO_END)


def units(spec: dict) -> dict[str, str]:
    return {
        metric["name"]: metric["unit"]
        for metric in end_to_end(spec) + list(spec["per_layer"])
    }
