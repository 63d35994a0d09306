"""Span tracing from outside the program.

The traced run wraps the public functions at each layer boundary of
``repro`` with a timer; nothing under ``src/`` is edited.  Each call
records one span (operation id, span id, parent id, name, start, end)
in memory.  A layer's *self* time is its span's duration minus the
part its child spans cover, so nested layers (``compile`` around
``planning_inputs`` around the statistics lookup) are not counted
twice.  The untraced run never imports this module's wrappers, so the
end-to-end numbers carry no tracing cost; the traced run reports the
cost as ``trace.overhead_ratio``.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict

_now = time.perf_counter


class Tracer:
    """Records spans around wrapped callables (single-threaded)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (op, id, parent, name, start, end)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.op = -1  # the benchmark operation the next spans belong to
        self._stack: list[list] = []  # [span id, child seconds]
        self._patched: list[tuple] = []

    def wrap(self, owner, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper."""
        original = owner.__dict__[attribute]
        function = getattr(owner, attribute)
        stack, spans = self._stack, self.spans
        self_seconds, calls = self.self_seconds, self.calls

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            spans.append(None)  # children get later ids; filled on exit
            stack.append(frame)
            start = _now()
            try:
                return function(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                duration = end - start
                spans[span_id] = (
                    self.op,
                    span_id,
                    None if parent is None else parent[0],
                    name,
                    start,
                    end,
                )
                self_seconds[name] += duration - frame[1]
                calls[name] += 1
                if parent is not None:
                    parent[1] += duration

        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, traced)

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def reset(self) -> None:
        """Forget what was recorded so far (set-up, warm-up)."""
        self.spans.clear()
        self.self_seconds.clear()
        self.calls.clear()

    def seconds(self, name: str) -> float:
        return self.self_seconds.get(name, 0.0)

    def dump(self, path) -> None:
        """Write the recorded spans out once the benchmark has ended."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["op", "id", "parent", "name", "start", "end"],
                    "spans": self.spans,
                },
                handle,
            )


def install_setup_spans(tracer: Tracer) -> None:
    """Spans around the phases of ``build_workload_database``.

    The builder imported these names into its own module namespace, so
    that is where they are replaced.
    """
    from repro.data import workloads

    tracer.wrap(workloads, "generate", "data.generate")
    tracer.wrap(workloads, "multiway_join", "relational.join")
    tracer.wrap(workloads, "sort_relation", "relational.join")
    tracer.wrap(workloads, "factorise", "core.build.factorise")
    tracer.wrap(workloads, "factorise_path", "core.build.factorise")


def install_query_spans(tracer: Tracer) -> None:
    """Spans at every layer boundary a query or a write crosses."""
    import repro.sql
    from repro.core import optimizer
    from repro.core.engine import FDBEngine
    from repro.database import Database
    from repro.plan import prepared
    from repro.stats.cache import StatsCache

    # session.sql / session.prepare import these from the package at
    # call time, so the package attribute is the seam.
    tracer.wrap(repro.sql, "parse_statement", "sql.parse")
    tracer.wrap(repro.sql, "parse_query", "sql.parse")
    tracer.wrap(prepared, "canonical_key", "plan.canonical")
    tracer.wrap(prepared, "bound_key", "plan.canonical")
    tracer.wrap(StatsCache, "relation_stats", "stats.lookup")
    tracer.wrap(StatsCache, "epochs_for", "stats.lookup")
    tracer.wrap(FDBEngine, "planning_inputs", "core.optimizer.planning_inputs")
    for strategy in (
        optimizer.GreedyOptimizer,
        optimizer.ExhaustiveOptimizer,
        optimizer.CostBasedOptimizer,
    ):
        if "plan" in strategy.__dict__:
            tracer.wrap(strategy, "plan", "core.optimizer.search")
    tracer.wrap(FDBEngine, "compile", "core.optimizer.compile")
    tracer.wrap(FDBEngine, "execute_planned", "core.engine.execute")
    tracer.wrap(Database, "apply", "ivm.apply")


class ResponseBytes:
    """Counts the bytes ``http.client`` reads, one tally per thread."""

    def __init__(self) -> None:
        self.by_thread: dict[int, int] = defaultdict(int)
        self._original = None

    def install(self) -> None:
        import http.client

        original = self._original = http.client.HTTPResponse.read
        by_thread = self.by_thread

        @functools.wraps(original)
        def read(response, *args):
            data = original(response, *args)
            by_thread[threading.get_ident()] += len(data)
            return data

        http.client.HTTPResponse.read = read

    def uninstall(self) -> None:
        import http.client

        if self._original is not None:
            http.client.HTTPResponse.read = self._original
            self._original = None

    @property
    def total(self) -> int:
        return sum(self.by_thread.values())
