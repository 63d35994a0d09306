"""The one clock every layer times with.

All durations in the codebase — lifecycle timings, f-plan step wall
time, lock waits, pool admission waits, span durations — come from
``clock.now()``, which is :func:`time.perf_counter`: monotonic, highest
available resolution, immune to NTP adjustment (wall-clock
``time.time()`` is not monotonic and skews timings when the system
clock steps).

``perf_counter`` values are process-local: they are only comparable to
other readings from the same process.
"""

from __future__ import annotations

from time import perf_counter as now

__all__ = ["now"]
