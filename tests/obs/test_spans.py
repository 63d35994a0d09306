"""Span trees: nesting, thread propagation, the slow log."""

from __future__ import annotations

import contextvars
from concurrent.futures import ThreadPoolExecutor

from repro.obs import configure
from repro.obs.spans import current_span, slow_log, span


class TestNesting:
    def test_child_attaches_to_the_enclosing_span(self):
        with span("session.query") as root:
            with span("plan") as plan:
                assert current_span() is plan
            with span("engine.run"):
                with span("merge"):
                    pass
        assert [c.name for c in root.children] == ["plan", "engine.run"]
        assert root.children[1].children[0].name == "merge"
        assert all(
            c.trace_id == root.trace_id for c in root.children
        )

    def test_durations_recorded_on_exit(self):
        with span("q") as root:
            with span("step") as step:
                pass
        assert root.duration is not None and root.duration >= 0.0
        assert step.duration is not None

    def test_exception_marks_the_span(self):
        try:
            with span("q") as root:
                raise KeyError("boom")
        except KeyError:
            pass
        assert root.attributes["error"] == "KeyError"

    def test_current_span_resets_after_exit(self):
        assert current_span() is None
        with span("q"):
            assert current_span() is not None
        assert current_span() is None

    def test_disabled_span_binds_none(self):
        configure(enabled=False)
        try:
            with span("q") as root:
                assert root is None
        finally:
            configure(enabled=True)


class TestThreadPropagation:
    def test_copied_context_attaches_across_threads(self):
        # The documented executor pattern: one fresh copy per task.
        def work(index):
            with span("task", task=index):
                return index

        with span("engine.run") as parent:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [
                    pool.submit(contextvars.copy_context().run, work, i)
                    for i in range(4)
                ]
                [f.result() for f in futures]
        assert sorted(
            c.attributes["task"] for c in parent.children
        ) == [0, 1, 2, 3]
        assert all(c.parent_id == parent.span_id for c in parent.children)

    def test_plain_submit_does_not_inherit(self):
        # Without the copy, the worker thread sees no current span.
        with span("engine.run"):
            with ThreadPoolExecutor(max_workers=1) as pool:
                assert pool.submit(current_span).result() is None


class TestRendering:
    def test_render_shows_tree_and_attributes(self):
        with span("session.query") as root:
            with span("task", task=0, mode="thread"):
                pass
        text = root.render()
        lines = text.splitlines()
        assert lines[0].startswith("session.query")
        assert "  task [mode=thread, task=0]" in lines[1]
        assert "ms" in lines[0]


class TestSlowLog:
    def test_roots_are_recorded_and_ranked(self):
        slow_log().clear()
        with span("fast") as fast:
            pass
        with span("slow") as slow:
            pass
        # Rank deterministically without sleeping.
        fast.duration = 0.001
        slow.duration = 0.5
        entries = slow_log().slowest(limit=2)
        assert [e["name"] for e in entries] == ["slow", "fast"]
        assert entries[0]["tree"]["name"] == "slow"
        slow_log().clear()

    def test_child_spans_are_not_recorded(self):
        slow_log().clear()
        with span("root"):
            with span("child"):
                pass
        names = [e["name"] for e in slow_log().slowest()]
        assert names == ["root"]
        slow_log().clear()

    def test_capacity_bounds_the_buffer(self):
        slow_log().clear()
        for index in range(40):
            with span(f"q{index}"):
                pass
        assert len(slow_log().slowest(limit=100)) == 32
        slow_log().clear()
