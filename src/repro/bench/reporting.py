"""Persisting experiment results (CSV / JSON) for later analysis.

The `run_*` experiments return :class:`repro.bench.experiments.ExperimentReport`
objects; this module flattens them into rows and writes machine-readable
files, so runs can be diffed.  ``seconds`` is best of N, ``median`` the
median of the same N runs.
"""

from __future__ import annotations

import csv
import json
from typing import IO, Mapping

from repro.bench.experiments import ExperimentReport

CSV_COLUMNS = (
    "experiment", "engine", "query", "scale", "seconds", "median", "rows"
)


def report_rows(report: ExperimentReport) -> list[dict]:
    """Flatten one report into dict rows (one per measurement)."""
    return [
        {
            "experiment": report.name,
            "engine": result.engine,
            "query": result.query,
            "scale": result.scale,
            "seconds": result.seconds,
            "median": result.median,
            "rows": result.rows,
        }
        for result in report.results
    ]


def write_csv(reports: Mapping[str, ExperimentReport], handle: IO[str]) -> int:
    """Write every measurement as CSV; returns the row count."""
    writer = csv.DictWriter(handle, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    count = 0
    for report in reports.values():
        for row in report_rows(report):
            writer.writerow(row)
            count += 1
    return count


def reports_to_json(reports: Mapping[str, ExperimentReport]) -> str:
    """JSON document with measurements, tables and extras per experiment."""
    document = {}
    for name, report in reports.items():
        document[name] = {
            "measurements": report_rows(report),
            "table": report.table,
            "extras": _safe_extras(report.extras),
        }
    return json.dumps(document, indent=2, default=str)


def _safe_extras(extras: dict) -> dict:
    """Extras restricted to JSON-representable values."""
    out = {}
    for key, value in extras.items():
        if isinstance(value, (int, float, str, bool)):
            out[key] = value
        elif isinstance(value, dict):
            out[key] = {
                k: v
                for k, v in value.items()
                if isinstance(v, (int, float, str, bool))
            }
    return out


def save_reports(
    reports: Mapping[str, ExperimentReport], directory: str
) -> tuple[str, str]:
    """Write ``results.csv`` and ``results.json`` under ``directory``."""
    import os

    os.makedirs(directory, exist_ok=True)
    csv_path = os.path.join(directory, "results.csv")
    json_path = os.path.join(directory, "results.json")
    with open(csv_path, "w", encoding="utf-8", newline="") as handle:
        write_csv(reports, handle)
    with open(json_path, "w", encoding="utf-8") as handle:
        handle.write(reports_to_json(reports))
    return csv_path, json_path
