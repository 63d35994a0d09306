"""The metrics registry: instruments, reset, exposition round-trips."""

from __future__ import annotations

import pytest

from repro.obs import configure, enabled
from repro.obs.export import parse_prometheus, render_prometheus
from repro.obs.metrics import BUCKETS, MetricsRegistry, metrics


@pytest.fixture()
def registry():
    return MetricsRegistry()


class TestInstruments:
    def test_counter_increments(self, registry):
        queries = registry.counter("queries_total", "Queries.", ("engine",))
        queries.labels("fdb").inc()
        queries.labels("fdb").inc(2)
        queries.labels("rdb").inc()
        assert queries.labels("fdb").value == 3.0
        assert queries.labels("rdb").value == 1.0

    def test_gauge_set_inc_dec(self, registry):
        pins = registry.gauge("pins")
        pins.set(4)
        pins.inc()
        pins.dec(2)
        assert pins.labels().value == 3.0

    def test_gauge_tracks_a_source_until_it_is_gone(self, registry):
        size = registry.gauge("size_bytes")
        reads = []
        state = {"value": 7.0}

        def source():
            reads.append(1)
            return state["value"]

        size.track(source)
        assert reads == []  # nothing is computed until the gauge is read
        assert size.samples() == [((), 7.0)]
        state["value"] = 9.0
        scraped = parse_prometheus(render_prometheus(registry))
        assert scraped["size_bytes"]["samples"][("size_bytes", ())] == 9.0
        state["value"] = None  # the owner is gone: the last value stays
        assert size.samples() == [((), 9.0)]
        size.set(3)
        assert size.samples() == [((), 3.0)]

    def test_histogram_bucketing(self, registry):
        lat = registry.histogram("latency_seconds")
        child = lat.labels()
        child.observe(0.001)  # lands in the le=0.0016 bucket
        child.observe(100.0)  # beyond the last bound: overflow bucket
        index = list(BUCKETS).index(0.0016)
        assert child.counts[index] == 1
        assert child.counts[-1] == 1
        assert child.count == 2
        assert child.total == pytest.approx(100.001)

    def test_family_is_idempotent(self, registry):
        first = registry.counter("hits_total", "Hits.", ("cache",))
        again = registry.counter("hits_total", "Hits.", ("cache",))
        assert first is again

    def test_kind_mismatch_rejected(self, registry):
        registry.counter("x_total")
        with pytest.raises(ValueError):
            registry.gauge("x_total")
        with pytest.raises(ValueError):
            registry.counter("x_total", labelnames=("a",))

    def test_label_arity_checked(self, registry):
        family = registry.counter("y_total", labelnames=("a", "b"))
        with pytest.raises(ValueError):
            family.labels("only-one")

    def test_labels_child_is_cached(self, registry):
        family = registry.counter("z_total", labelnames=("a",))
        assert family.labels("v") is family.labels("v")


class TestDisabled:
    def test_disabled_instruments_are_noops(self, registry):
        counter = registry.counter("c_total").labels()
        histogram = registry.histogram("h_seconds").labels()
        gauge = registry.gauge("g").labels()
        configure(enabled=False)
        try:
            assert not enabled()
            counter.inc()
            histogram.observe(0.5)
            gauge.set(7)
        finally:
            configure(enabled=True)
        assert counter.value == 0.0
        assert histogram.count == 0
        assert gauge.value == 0.0


class TestReset:
    def test_reset_zeroes_in_place(self, registry):
        family = registry.counter("c_total")
        bound = family.labels()
        bound.inc(9)
        registry.reset()
        assert bound.value == 0.0  # the pre-bound reference stays live
        bound.inc()
        assert family.labels().value == 1.0


class TestExposition:
    def test_render_parse_round_trip(self, registry):
        registry.counter("events_total", "Events.", ("kind",)).labels(
            "write"
        ).inc(3)
        registry.gauge("pins", "Pinned.").labels().set(2)
        registry.histogram("lat_seconds", "Latency.").labels().observe(0.001)
        text = render_prometheus(registry)
        families = parse_prometheus(text)
        assert families["events_total"]["kind"] == "counter"
        assert (
            families["events_total"]["samples"][
                ("events_total", (("kind", "write"),))
            ]
            == 3.0
        )
        assert families["pins"]["samples"][("pins", ())] == 2.0
        histogram = families["lat_seconds"]
        assert histogram["kind"] == "histogram"
        assert histogram["samples"][("lat_seconds_count", ())] == 1.0

    def test_cumulative_buckets_and_inf(self, registry):
        child = registry.histogram("h_seconds").labels()
        child.observe(0.001)
        child.observe(999.0)
        text = render_prometheus(registry)
        inf_lines = [
            line for line in text.splitlines() if 'le="+Inf"' in line
        ]
        assert inf_lines and inf_lines[0].endswith(" 2")

    def test_label_values_are_escaped(self, registry):
        registry.counter("e_total", labelnames=("v",)).labels(
            'a"b\\c\nd'
        ).inc()
        text = render_prometheus(registry)
        assert '\\"' in text and "\\\\" in text and "\\n" in text

    def test_global_registry_serves_the_process(self):
        assert metrics() is metrics()
