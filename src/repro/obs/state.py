"""The one observability switch, shared by metrics and spans.

``STATE.enabled`` is a plain attribute read on the instrumentation hot
path: every instrument method and :func:`repro.obs.spans.span` checks it
first and returns immediately when observability is off — the true
no-op fast path.  The initial value comes from ``REPRO_OBS`` (set to
``0``/``false``/``no``/``off`` to disable; default enabled);
:func:`configure` flips it at runtime, which benchmarks use to measure
both modes in one process.
"""

from __future__ import annotations

import os


class _State:
    __slots__ = ("enabled",)


STATE = _State()
STATE.enabled = os.environ.get("REPRO_OBS", "1").strip().lower() not in {
    "0",
    "false",
    "no",
    "off",
}


def enabled() -> bool:
    """Whether instrumentation is currently recording."""
    return STATE.enabled


def configure(enabled: "bool | None" = None) -> bool:
    """Toggle observability at runtime; returns the resulting state."""
    if enabled is not None:
        STATE.enabled = bool(enabled)
    return STATE.enabled
