"""Metrics registry: counters/gauges/histograms + expositions."""

import json

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_prometheus,
)


class TestCounter:
    def test_inc_and_labels(self):
        c = Counter("events_total")
        c.inc()
        c.inc(2, kind="a")
        c.inc(kind="a")
        assert c.value() == 1
        assert c.value(kind="a") == 3

    def test_negative_increment_rejected(self):
        c = Counter("events_total")
        with pytest.raises(ValueError):
            c.inc(-1)


    def test_totals_per_label_value(self):
        c = Counter("events_total")
        c.inc(2, event="a", job="x")
        c.inc(3, event="a", job="y")
        c.inc(event="b", job="x")
        c.inc(7)  # no event label: skipped
        assert c.totals("event") == {"a": 5, "b": 1}
        assert c.totals("event", job="x") == {"a": 2, "b": 1}
        assert c.totals("event", job="z") == {}


class TestGauge:
    def test_set_and_add(self):
        g = Gauge("depth")
        g.set(5)
        g.add(-2)
        assert g.value() == 3

    def test_set_max_keeps_the_peak(self):
        g = Gauge("rss_bytes")
        g.set_max(0)
        assert g.exposition() == []  # nothing above the 0 floor yet
        for value in (5, 9, 7):
            g.set_max(value)
        assert g.value() == 9.0


class TestHistogram:
    def test_snapshot_sum_and_count(self):
        h = Histogram("latency_seconds", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(5.55)

    def test_totals_sum_observations(self):
        h = Histogram("stage_seconds", buckets=(0.1, 1.0))
        h.observe(0.25, stage="a")
        h.observe(0.5, stage="a")
        assert h.totals("stage") == {"a": 0.75}

    def test_cumulative_buckets_in_exposition(self):
        h = Histogram("latency_seconds", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        lines = h.exposition()
        text = "\n".join(lines)
        assert 'le="0.1"} 1' in text
        assert 'le="1"} 2' in text
        assert 'le="+Inf"} 3' in text


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        reg = MetricsRegistry()
        a = reg.counter("hits_total")
        b = reg.counter("hits_total")
        assert a is b

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_reset_clears_everything(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        reg.reset()
        assert reg.names() == []

    def test_json_exposition_is_valid(self):
        reg = MetricsRegistry()
        reg.counter("hits_total").inc(3, outcome="hit")
        payload = json.loads(reg.to_json())
        assert payload["hits_total"]["type"] == "counter"


class TestPrometheusRoundTrip:
    def test_counter_gauge_histogram_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("events_total", "help text").inc(4, event="solve")
        reg.gauge("workers").set(2)
        hist = reg.histogram("stage_seconds", buckets=(0.1, 1.0))
        hist.observe(0.05, stage="execute")
        hist.observe(0.5, stage="execute")

        text = reg.to_prometheus()
        assert "# HELP events_total help text" in text
        assert "# TYPE events_total counter" in text

        families = parse_prometheus(text)
        assert families["events_total"]["type"] == "counter"
        assert families["events_total"]["samples"][
            ("events_total", (("event", "solve"),))
        ] == 4
        assert families["workers"]["samples"][("workers", ())] == 2
        hist_samples = families["stage_seconds"]["samples"]
        assert hist_samples[
            ("stage_seconds_count", (("stage", "execute"),))
        ] == 2
        assert hist_samples[
            ("stage_seconds_bucket",
             (("le", "+Inf"), ("stage", "execute")))
        ] == 2


class TestHostileLabelValues:
    """Exposition escaping per the 0.0.4 spec (quotes, backslashes,
    newlines) and the matching escape-aware parser."""

    HOSTILE = (
        'quo"te',
        'back\\slash',
        'new\nline',
        'clo}sing brace',
        'sp ace',
        'literal\\n not newline',
        'mix"\\\n"all',
    )

    def test_hostile_values_round_trip(self):
        reg = MetricsRegistry()
        counter = reg.counter("hostile_total", "hostile labels")
        for index, value in enumerate(self.HOSTILE):
            counter.inc(index + 1, label=value)
        families = parse_prometheus(reg.to_prometheus())
        samples = families["hostile_total"]["samples"]
        recovered = {
            dict(labelset)["label"]: count
            for (_, labelset), count in samples.items()
        }
        for index, value in enumerate(self.HOSTILE):
            assert recovered[value] == index + 1, value

    def test_exposition_lines_stay_single_line(self):
        # A raw newline in a label value must be escaped to the two
        # characters '\' 'n', never emitted verbatim: one sample, one
        # exposition line.
        reg = MetricsRegistry()
        reg.counter("nl_total").inc(label="a\nb")
        sample_lines = [
            line for line in reg.to_prometheus().splitlines()
            if line.startswith("nl_total")
        ]
        assert len(sample_lines) == 1
        assert '\\n' in sample_lines[0]

    def test_escaped_quote_does_not_end_the_label_block(self):
        reg = MetricsRegistry()
        reg.counter("edge_total").inc(label='v"}x')
        families = parse_prometheus(reg.to_prometheus())
        (key,) = families["edge_total"]["samples"]
        assert dict(key[1])["label"] == 'v"}x'

    def test_help_text_escaping_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("helpful_total", "line one\nline two \\ slash").inc()
        families = parse_prometheus(reg.to_prometheus())
        assert families["helpful_total"]["help"] == (
            "line one\nline two \\ slash"
        )
