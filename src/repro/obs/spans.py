"""Hierarchical query spans with cross-thread context.

A span is one timed region of a query's life; nesting gives the tree
``session.query`` → ``plan``/``cache.lookup`` → ``engine.run`` → the
f-plan layers.  The current span travels in a
:class:`contextvars.ContextVar`:

- same thread: ``with span("plan"):`` picks up the enclosing span as
  parent automatically;
- thread executors do **not** copy context — callers submit
  ``contextvars.copy_context().run(fn, ...)`` (one fresh copy per
  task), after which the child span attaches to the shared parent
  ``Span`` object across threads (``list.append`` is atomic).

Finished root spans land in the process-global :class:`SlowLog` ring
buffer (``GET /debug/slow`` and the slow-query WARN line read it).
"""

from __future__ import annotations

import contextvars
import os
import threading
import uuid
from collections import deque
from typing import Any

from repro.obs import clock
from repro.obs.logs import get_logger
from repro.obs.state import STATE

_CURRENT: "contextvars.ContextVar[Span | None]" = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)

#: Root spans at least this slow emit one WARN line with their trace id.
SLOW_QUERY_SECONDS = float(os.environ.get("REPRO_SLOW_QUERY_SECONDS", "1.0"))

_log = get_logger("obs.slow")


def _new_id() -> str:
    return uuid.uuid4().hex[:16]


class Span:
    """One timed region; a context manager that tracks the current span."""

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "attributes",
        "duration",
        "children",
        "_start",
        "_token",
        "_root",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        parent_id: "str | None" = None,
        attributes: "dict | None" = None,
        root: bool = False,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = _new_id()
        self.parent_id = parent_id
        self.attributes = attributes or {}
        self.duration: "float | None" = None
        self.children: list[Span] = []
        self._start = 0.0
        self._token: "contextvars.Token | None" = None
        self._root = root

    # ------------------------------------------------------------------
    # Context-manager protocol
    # ------------------------------------------------------------------
    def __enter__(self) -> "Span":
        self._token = _CURRENT.set(self)
        self._start = clock.now()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration = clock.now() - self._start
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        if self._root:
            _SLOW.record(self)
            if self.duration >= SLOW_QUERY_SECONDS:
                _log.warning(
                    "slow query trace=%s %s took %.1f ms",
                    self.trace_id,
                    self.name,
                    self.duration * 1000.0,
                )
        return False

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON/pickle-safe tree: names, attributes, durations, children."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "attributes": dict(self.attributes),
            "seconds": self.duration,
            "children": [child.to_dict() for child in self.children],
        }

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render(self) -> str:
        """ASCII tree with per-span durations and attributes."""
        lines: list[str] = []

        def walk(span: "Span", depth: int) -> None:
            detail = ""
            if span.attributes:
                rendered = ", ".join(
                    f"{key}={value}"
                    for key, value in sorted(span.attributes.items())
                )
                detail = f" [{rendered}]"
            timing = (
                f"{span.duration * 1000.0:9.3f} ms"
                if span.duration is not None
                else "  (open)"
            )
            label = "  " * depth + span.name + detail
            lines.append(f"{label:<48} {timing}")
            for child in span.children:
                walk(child, depth + 1)

        walk(self, 0)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, trace={self.trace_id}, "
            f"children={len(self.children)})"
        )


class _NoopSpan:
    """Shared do-nothing context manager: the disabled fast path.

    ``with span(...) as s:`` binds ``s`` to ``None`` when observability
    is off, so callers guard attribute access with ``if s is not None``.
    """

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP = _NoopSpan()


def span(name: str, **attributes: Any) -> "Span | _NoopSpan":
    """Open a span under the current one (or a new root)."""
    if not STATE.enabled:
        return _NOOP
    parent = _CURRENT.get()
    if parent is None:
        return Span(name, _new_id(), attributes=attributes, root=True)
    child = Span(
        name, parent.trace_id, parent.span_id, attributes=attributes
    )
    parent.children.append(child)
    return child


def current_span() -> "Span | None":
    """The innermost open span of this context, if any."""
    return _CURRENT.get()


class SlowLog:
    """Ring buffer of recent finished root spans, ranked on read.

    ``record`` keeps the :class:`Span` object (immutable once exited)
    and serialises lazily in :meth:`slowest` — recording stays
    allocation-light on the query path.
    """

    def __init__(self, capacity: int = 32) -> None:
        self._lock = threading.Lock()
        self._entries: deque[Span] = deque(maxlen=capacity)

    def record(self, span: Span) -> None:
        with self._lock:
            self._entries.append(span)

    def slowest(self, limit: int = 10) -> list[dict]:
        """The slowest recent roots, slowest first, as JSON-able dicts."""
        with self._lock:
            entries = list(self._entries)
        entries.sort(key=lambda span: span.duration or 0.0, reverse=True)
        return [
            {
                "trace_id": span.trace_id,
                "name": span.name,
                "seconds": span.duration,
                "attributes": dict(span.attributes),
                "tree": span.to_dict(),
            }
            for span in entries[:limit]
        ]

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


_SLOW = SlowLog()


def slow_log() -> SlowLog:
    """The process-global slow-query ring buffer."""
    return _SLOW
