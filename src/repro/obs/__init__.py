"""``repro.obs`` — metrics, hierarchical query tracing, logging.

The unified observability layer: a metrics registry
(:mod:`repro.obs.metrics`), hierarchical spans that survive thread
boundaries (:mod:`repro.obs.spans`), Prometheus text exposition
(:mod:`repro.obs.export`), a slow-query ring buffer, the ``repro.*``
logger hierarchy (:mod:`repro.obs.logs`), and the single monotonic
clock (:mod:`repro.obs.clock`).

Everything funnels through one switch (:func:`configure` /
``REPRO_OBS``); when off, every instrument call is a single attribute
check — safe to leave in the hottest paths.

Typical embedded use::

    from repro import obs

    obs.configure(enabled=True)
    result = session.execute(query)
    print(result.explain())                  # includes the span tree
    print(obs.render_prometheus(obs.metrics()))

The server exposes the same registry at ``GET /metrics`` and the slow
log at ``GET /debug/slow``.
"""

from repro.obs import clock
from repro.obs.export import CONTENT_TYPE, parse_prometheus, render_prometheus
from repro.obs.logs import get_logger
from repro.obs.metrics import BUCKETS, MetricsRegistry, metrics
from repro.obs.spans import SlowLog, Span, current_span, slow_log, span
from repro.obs.state import configure, enabled

__all__ = [
    "BUCKETS",
    "CONTENT_TYPE",
    "MetricsRegistry",
    "SlowLog",
    "Span",
    "clock",
    "configure",
    "current_span",
    "enabled",
    "get_logger",
    "metrics",
    "parse_prometheus",
    "render_prometheus",
    "slow_log",
    "span",
]
