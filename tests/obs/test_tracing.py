"""End-to-end traces: Result.explain() span trees across every engine path."""

from __future__ import annotations

import json

import pytest

from repro import connect
from repro.data.workloads import build_workload_database
from repro.obs import configure

REVENUE = (
    "SELECT customer, SUM(price) AS revenue "
    "FROM Orders, Packages, Items GROUP BY customer"
)


@pytest.fixture(scope="module")
def db():
    return build_workload_database(scale=0.1, seed=7)


def _span_names(node: dict) -> set[str]:
    names = {node["name"]}
    for child in node["children"]:
        names |= _span_names(child)
    return names


class TestSingleEngine:
    def test_result_carries_the_root_span(self, db):
        session = connect(db, engine="fdb")
        result = session.sql(REVENUE)
        assert result.span is not None
        assert result.span.name == "session.query"
        assert result.span.duration is not None

    def test_explain_renders_the_span_tree(self, db):
        session = connect(db, engine="fdb")
        result = session.sql(REVENUE)
        text = result.explain()
        assert f"span tree (trace {result.span.trace_id})" in text
        assert "session.query" in text
        assert "engine.run" in text

    def test_trace_json_exports_the_tree(self, db):
        session = connect(db, engine="fdb")
        result = session.sql(REVENUE)
        tree = json.loads(result.trace_json())
        assert tree["name"] == "session.query"
        names = _span_names(tree)
        assert {"cache.lookup", "engine.run"} <= names

    def test_plan_span_appears_on_first_execution_only(self, db):
        session = connect(db, engine="fdb")
        first = session.sql(REVENUE + " ORDER BY revenue")
        assert "plan" in _span_names(json.loads(first.trace_json()))
        again = session.sql(REVENUE + " ORDER BY revenue")
        # Plan cache hit: no recompile, hence no plan span.
        assert "plan" not in _span_names(json.loads(again.trace_json()))

    def test_output_time_is_a_child_of_engine_run(self, db):
        """Enumeration shows apart from the f-plan steps, with its own
        histogram series next to the group-output kernel's."""
        from repro.obs import metrics

        def observed(kernel):
            family = metrics().histogram("repro_kernel_seconds", "", ("kernel",))
            return family.labels(kernel).count

        before = observed("enumerate"), observed("group_output")
        session = connect(db, engine="fdb", cache=False)
        result = session.sql(
            "SELECT package, date, SUM(price) AS total FROM R1 "
            "GROUP BY package, date"
        )
        tree = json.loads(result.trace_json())
        (run,) = [c for c in tree["children"] if c["name"] == "engine.run"]
        (child,) = [c for c in run["children"] if c["name"] == "enumerate"]
        assert child["attributes"]["rows"] == len(result.rows)
        assert child["seconds"] <= run["seconds"]
        assert "enumerate" in result.explain()
        assert observed("enumerate") == before[0] + 1
        assert observed("group_output") > before[1]

    def test_every_f_plan_step_is_a_child_of_engine_run(self, db):
        """One child span per executed step, with the output size and the
        unions its kernel covered; explain() sets the estimate beside
        the observed size and the ratio feeds repro_estimate_qerror."""
        from repro.obs import metrics

        qerror = metrics().histogram(
            "repro_estimate_qerror", "", ("strategy",)
        ).labels("cost")
        before = qerror.count
        session = connect(db, engine="fdb", cache=False)
        result = session.sql(
            "SELECT customer, SUM(price) AS revenue FROM R1 "
            "WHERE price > 2 GROUP BY customer"
        )
        trace = result.trace
        tree = json.loads(result.trace_json())
        (run,) = [c for c in tree["children"] if c["name"] == "engine.run"]
        steps = [c for c in run["children"] if c["name"].endswith("Step")]
        assert [c["name"] for c in steps][0] == "SelectStep"
        assert len(steps) == len(trace.steps) == len(trace.unions)
        assert [c["attributes"]["singletons"] for c in steps] == trace.sizes
        assert [c["attributes"]["unions"] for c in steps] == trace.unions
        # σ on price runs over every price union below every item.
        assert trace.unions[0] > 1
        estimates = trace.provenance["estimated_sizes"]
        assert len(estimates) == len(result.plan)
        assert qerror.count == before + len(estimates)
        lines = [
            line for line in trace.describe().splitlines() if "size=" in line
        ]
        assert all("unions=" in line for line in lines)
        assert "est=" not in lines[0]  # the selection carries no estimate
        assert all("est=" in line for line in lines[1:])
        assert "est=" in result.explain()

    def test_f_plan_steps_open_no_root_spans(self, db):
        """Outside a query span (a bare engine call) a traced execution
        records its trace but no spans of its own."""
        from repro.core.engine import FDBEngine
        from repro.data.workloads import FULL_WORKLOAD
        from repro.obs import spans

        _, _, trace = FDBEngine().execute_traced(FULL_WORKLOAD["Q2"].query, db)
        assert trace.unions
        roots = {entry["name"] for entry in spans.slow_log().slowest(64)}
        assert not any(name.endswith("Step") for name in roots)

    def test_disabled_results_have_no_span(self, db):
        configure(enabled=False)
        try:
            session = connect(db, engine="fdb")
            result = session.sql(REVENUE)
            assert result.span is None
            assert result.trace_json() is None
            assert "span tree" not in result.explain()
        finally:
            configure(enabled=True)

    def test_disabled_runs_leave_the_query_counter(self, db):
        from repro.obs import metrics

        def queries_total() -> float:
            return sum(
                value
                for family in metrics().families()
                if family.name == "repro_queries_total"
                for _, value in family.samples()
            )

        session = connect(db, engine="fdb", cache=False)
        configure(enabled=False)
        try:
            before = queries_total()
            session.sql(REVENUE)
            assert queries_total() == before
        finally:
            configure(enabled=True)
        session.sql(REVENUE)
        assert queries_total() == before + 1


class TestExplainAnalyze:
    def test_fplan_steps_carry_wall_times(self, db):
        session = connect(db, engine="fdb")
        result = session.sql(REVENUE)
        trace = result.trace
        assert trace is not None
        assert len(trace.seconds) == len(trace.steps)
        assert all(s >= 0.0 for s in trace.seconds)
        text = result.explain()
        assert "ms" in text
