"""Unit tests for the counter/gauge/histogram registry."""

import math

import pytest

from repro.errors import ConfigError
from repro.obs import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_inc_accumulates(self):
        c = Counter("ops_total")
        c.inc()
        c.inc(2.5)
        assert c.get() == pytest.approx(3.5)

    def test_negative_increment_rejected(self):
        c = Counter("ops_total")
        with pytest.raises(ConfigError):
            c.inc(-1)


class TestGauge:
    def test_set_and_inc(self):
        g = Gauge("depth")
        g.set(5)
        g.inc(2)
        assert g.get() == pytest.approx(7.0)

    def test_callback_gauge_reads_live_value(self):
        box = {"v": 1}
        g = Gauge("depth", fn=lambda: box["v"])
        assert g.get() == 1.0
        box["v"] = 9
        assert g.get() == 9.0

    def test_callback_gauge_rejects_set(self):
        g = Gauge("depth", fn=lambda: 0)
        with pytest.raises(ConfigError):
            g.set(1)
        with pytest.raises(ConfigError):
            g.inc()


class TestHistogram:
    def test_summary_tracks_count_sum_min_max(self):
        h = Histogram("latency")
        for x in (1.0, 3.0, 2.0):
            h.observe(x)
        s = h.summary()
        assert s["count"] == 3
        assert s["sum"] == pytest.approx(6.0)
        assert s["min"] == 1.0
        assert s["max"] == 3.0

    def test_empty_summary_is_nan_not_inf(self):
        s = Histogram("latency").summary()
        assert s["count"] == 0
        assert math.isnan(s["min"]) and math.isnan(s["max"])

    def test_quantiles_converge(self):
        h = Histogram("latency", quantiles=(0.5,))
        for i in range(1, 2001):
            h.observe(i % 100)
        assert h.quantile(0.5) == pytest.approx(49.5, abs=5)

    def test_quantile_of_empty_is_nan(self):
        assert math.isnan(Histogram("latency").quantile(0.5))


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("ops_total", server="0")
        b = reg.counter("ops_total", server="0")
        assert a is b
        a.inc()
        assert reg.value("ops_total", server="0") == 1.0

    def test_labels_distinguish_series(self):
        reg = MetricsRegistry()
        reg.counter("ops_total", server="0").inc()
        reg.counter("ops_total", server="1").inc(5)
        assert reg.value("ops_total", server="0") == 1.0
        assert reg.value("ops_total", server="1") == 5.0

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ConfigError):
            reg.gauge("x")

    def test_reregistration_rebinds_callback(self):
        # A restarted component re-registers its gauge; the callback must
        # point at the *new* live object, not the dead one.
        reg = MetricsRegistry()
        reg.gauge("depth", fn=lambda: 1)
        reg.gauge("depth", fn=lambda: 2)
        assert reg.value("depth") == 2.0

    def test_value_of_missing_metric_raises(self):
        with pytest.raises(ConfigError):
            MetricsRegistry().value("nope")

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("ops_total", server="3").inc(2)
        reg.gauge("depth", fn=lambda: 7)
        reg.histogram("latency").observe(0.5)
        snap = reg.snapshot()
        assert snap["counters"] == {'ops_total{server="3"}': 2.0}
        assert snap["gauges"] == {"depth": 7.0}
        assert snap["histograms"]["latency"]["count"] == 1

    def test_snapshot_is_json_able(self):
        import json

        reg = MetricsRegistry()
        reg.counter("ops_total").inc()
        reg.histogram("latency").observe(1.0)
        json.dumps(reg.snapshot())


class TestPrometheusExport:
    def test_one_type_line_per_metric_name(self):
        # The exposition format forbids repeating # TYPE for a name even
        # when many label sets exist.
        reg = MetricsRegistry()
        for sid in range(3):
            reg.counter("ops_total", "Ops", server=str(sid)).inc(sid)
        text = reg.to_prometheus()
        assert text.count("# TYPE ops_total counter") == 1
        assert 'ops_total{server="2"} 2.0' in text

    def test_gauge_and_summary_rendering(self):
        reg = MetricsRegistry()
        reg.gauge("depth", "Queue depth", fn=lambda: 4, server="0")
        h = reg.histogram("latency", "Service time", quantiles=(0.5,))
        h.observe(2.0)
        text = reg.to_prometheus()
        assert "# TYPE depth gauge" in text
        assert 'depth{server="0"} 4.0' in text
        assert "# TYPE latency summary" in text
        assert 'latency{quantile="0.5"}' in text
        assert "latency_count 1" in text
        assert "latency_sum 2.0" in text

    def test_extra_labels_appended_to_every_sample(self):
        reg = MetricsRegistry()
        reg.counter("ops_total", server="0").inc()
        text = reg.to_prometheus(extra_labels={"cell": "E1"})
        assert 'ops_total{cell="E1",server="0"} 1.0' in text

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().to_prometheus() == ""
