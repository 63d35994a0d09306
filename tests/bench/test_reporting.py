"""Tests for experiment result export (CSV/JSON)."""

import csv
import io
import json

import pytest

from repro.bench.experiments import BenchResult, ExperimentReport
from repro.bench.reporting import (
    report_rows,
    reports_to_json,
    save_reports,
    write_csv,
)


@pytest.fixture()
def reports():
    report = ExperimentReport("fig5")
    report.results = [
        BenchResult("FDB", "Q1", 0.01, 100, 0.5, 0.02),
        BenchResult("SQLite", "Q1", 0.02, 100, 0.5),
    ]
    report.table = "Figure 5 ..."
    report.extras = {"note": "x", "nested": {"a": 1, "obj": object()}}
    return {"fig5": report}


def test_report_rows(reports):
    rows = report_rows(reports["fig5"])
    assert rows[0] == {
        "experiment": "fig5",
        "engine": "FDB",
        "query": "Q1",
        "scale": 0.5,
        "seconds": 0.01,
        "median": 0.02,
        "rows": 100,
    }


def test_write_csv(reports):
    buffer = io.StringIO()
    count = write_csv(reports, buffer)
    assert count == 2
    parsed = list(csv.DictReader(io.StringIO(buffer.getvalue())))
    assert parsed[1]["engine"] == "SQLite"
    assert float(parsed[0]["seconds"]) == 0.01


def test_reports_to_json_filters_unserialisable(reports):
    document = json.loads(reports_to_json(reports))
    assert document["fig5"]["extras"]["note"] == "x"
    assert document["fig5"]["extras"]["nested"] == {"a": 1}
    assert len(document["fig5"]["measurements"]) == 2


def test_save_reports(tmp_path, reports):
    csv_path, json_path = save_reports(reports, str(tmp_path / "out"))
    assert json.load(open(json_path))["fig5"]["table"].startswith("Figure 5")
    with open(csv_path) as handle:
        assert len(handle.readlines()) == 3  # header + 2 rows


def test_cli_experiments_output(tmp_path, capsys):
    from repro.__main__ import main

    out_dir = str(tmp_path / "results")
    assert main(["experiments", "--quick", "--output", out_dir]) == 0
    text = capsys.readouterr().out
    assert "results written to" in text
    document = json.load(open(out_dir + "/results.json"))
    assert "fig4" in document and "optimizer" in document


def test_report_rows_without_median():
    report = ExperimentReport("fig4")
    report.results = [BenchResult("FDB", "Q2", 0.5)]
    row = report_rows(report)[0]
    assert row["median"] is None and row["scale"] is None and row["rows"] == 0


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["experiments"], {}),
        (
            ["experiments", "--quick"],
            {"scale": 0.1, "scales": (0.1, 0.2), "repeats": 1},
        ),
    ],
)
def test_cli_experiments_quick_parameters(monkeypatch, argv, expected):
    # --quick is the one switch between the paper's and the smoke scales;
    # without it run_all keeps its own defaults.
    from repro.__main__ import main
    from repro.bench import experiments

    seen = []
    monkeypatch.setattr(
        experiments, "run_all", lambda **kwargs: seen.append(kwargs) or {}
    )
    assert main(argv) == 0
    assert seen == [expected]


def test_cli_experiments_prints_every_table_and_writes_nothing(
    tmp_path, capsys, monkeypatch
):
    from repro.__main__ import main

    monkeypatch.chdir(tmp_path)
    assert main(["experiments", "--quick"]) == 0
    text = capsys.readouterr().out
    for title in (
        "Representation sizes",
        "Figure 4",
        "Figure 5",
        "Figure 6",
        "Figure 7",
        "Figure 8",
        "Optimiser study",
    ):
        assert title in text, title
    # Without --output the run leaves no file behind.
    assert list(tmp_path.iterdir()) == []
    assert "results written to" not in text
