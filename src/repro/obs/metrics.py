"""A thread-safe metrics registry.

Three instrument kinds — counters, gauges, histograms — organised as
*families* (one metric name, a fixed tuple of label names) whose
labelled children are created on first use and cached forever.  The
intended hot-path discipline is: resolve the child **once** (module
import or ``__init__``) with :meth:`Family.labels` and call
``inc``/``set``/``observe`` on the pre-bound child inside critical
sections — those methods allocate nothing and start with a single
enabled-flag check (see :mod:`repro.obs.state`).  The concurrency
linter (rule ``obs-allocation``) enforces this inside lock-guarded
blocks.

Histograms use **fixed exponential bucket bounds** (:data:`BUCKETS`,
class-level constants), so every histogram buckets identically.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Iterator, Sequence

from repro.obs.state import STATE

#: Exponential histogram bounds in seconds: 50µs · 2^i for i in 0..19
#: (50µs … ~26s).
BUCKETS: tuple[float, ...] = tuple(5e-05 * 2.0**i for i in range(20))


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("_lock", "value")
    kind = "counter"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if not STATE.enabled:
            return
        with self._lock:
            self.value += amount

    def _sample(self) -> float:
        return self.value

    def _reset(self) -> None:
        with self._lock:
            self.value = 0.0


class Gauge:
    """A value that goes up and down (sizes, in-flight counts).

    A gauge whose value is expensive to compute can :meth:`track` a
    source instead of being ``set``: the source is read when the gauge
    is sampled (scrape), so the owner pays nothing on its own
    hot path.
    """

    __slots__ = ("_lock", "value", "_source")
    kind = "gauge"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0.0
        self._source = None

    def set(self, value: float) -> None:
        if not STATE.enabled:
            return
        self._source = None
        self.value = value

    def track(self, source) -> None:
        """Sample ``source()`` from now on; ``None`` from it (the owner
        is gone) keeps the last value read."""
        if not STATE.enabled:
            return
        self._source = source

    def inc(self, amount: float = 1.0) -> None:
        if not STATE.enabled:
            return
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        if not STATE.enabled:
            return
        with self._lock:
            self.value -= amount

    def _sample(self) -> float:
        source = self._source
        if source is not None:
            value = source()
            if value is None:
                self._source = None
            else:
                self.value = value
        return self.value

    def _reset(self) -> None:
        self._source = None
        self.value = 0.0


class Histogram:
    """A distribution over fixed exponential buckets.

    ``counts[i]`` holds observations with ``value <= bounds[i]`` (and
    greater than the previous bound); ``counts[-1]`` is the overflow
    (+Inf) bucket.  Rendering cumulates the counts into Prometheus
    ``le`` form.
    """

    __slots__ = ("_lock", "bounds", "counts", "total", "count")
    kind = "histogram"

    def __init__(self, bounds: Sequence[float] = BUCKETS) -> None:
        self._lock = threading.Lock()
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        if not STATE.enabled:
            return
        index = bisect_left(self.bounds, value)
        with self._lock:
            self.counts[index] += 1
            self.total += value
            self.count += 1

    def _sample(self) -> dict:
        with self._lock:
            return {
                "bounds": list(self.bounds),
                "counts": list(self.counts),
                "sum": self.total,
                "count": self.count,
            }

    def _reset(self) -> None:
        with self._lock:
            self.counts = [0] * (len(self.bounds) + 1)
            self.total = 0.0
            self.count = 0


class Family:
    """One metric name with a fixed label-name tuple and cached children.

    ``labels(*values)`` resolves (creating on first use) the child for
    one label-value combination; the un-labelled convenience methods
    (:meth:`inc`/:meth:`set`/:meth:`observe`/:meth:`dec`) operate on the
    ``()`` child of a label-free family.
    """

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: tuple[str, ...],
        factory,
        kind: str,
    ) -> None:
        self.name = name
        self.help = help_text
        self.labelnames = labelnames
        self.kind = kind
        self._factory = factory
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], Any] = {}

    def labels(self, *values) -> Any:
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} takes labels {self.labelnames}, "
                f"got {len(values)} value(s)"
            )
        key = tuple(str(value) for value in values)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._factory()
                    self._children[key] = child
        return child

    # Convenience for label-free families (delegates to the () child).
    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self.labels().dec(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def track(self, source) -> None:
        self.labels().track(source)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    def samples(self) -> list[tuple[tuple[str, ...], Any]]:
        with self._lock:
            items = list(self._children.items())
        return [(key, child._sample()) for key, child in sorted(items)]


class MetricsRegistry:
    """The named-family table."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, Family] = {}

    # ------------------------------------------------------------------
    # Family constructors (idempotent: same name returns the family)
    # ------------------------------------------------------------------
    def counter(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> Family:
        return self._family(name, help_text, labelnames, Counter, "counter")

    def gauge(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> Family:
        return self._family(name, help_text, labelnames, Gauge, "gauge")

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        bounds: Sequence[float] = BUCKETS,
    ) -> Family:
        bounds = tuple(bounds)
        return self._family(
            name, help_text, labelnames, lambda: Histogram(bounds), "histogram"
        )

    def _family(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str],
        factory,
        kind: str,
    ) -> Family:
        labelnames = tuple(labelnames)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = Family(name, help_text, labelnames, factory, kind)
                self._families[name] = family
                return family
        if family.kind != kind or family.labelnames != labelnames:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind} "
                f"with labels {family.labelnames}"
            )
        return family

    def families(self) -> Iterator[Family]:
        with self._lock:
            families = list(self._families.values())
        return iter(sorted(families, key=lambda f: f.name))

    def reset(self) -> None:
        """Zero every child **in place** (pre-bound references stay valid)."""
        for family in self.families():
            with family._lock:
                children = list(family._children.values())
            for child in children:
                child._reset()


#: The process-global registry every layer instruments into.
_REGISTRY = MetricsRegistry()


def metrics() -> MetricsRegistry:
    """The process-global registry."""
    return _REGISTRY
