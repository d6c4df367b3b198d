"""Tests for collectors, summaries, and time series."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.metrics.collector import MetricsCollector
from repro.metrics.summary import summarize
from repro.metrics.timeseries import WindowedSeries

from tests.schedulers.helpers import make_multiget


def finished_request(request_id=0, arrival=0.0, completion=1.0, slices=((0, 0.5),)):
    request = make_multiget(list(slices), request_id=request_id, arrival=arrival)
    request.completion_time = completion
    return request


class TestCollector:
    def test_record_and_count(self):
        collector = MetricsCollector()
        collector.record_request(finished_request())
        assert len(collector) == 1

    def test_unfinished_request_rejected(self):
        collector = MetricsCollector()
        request = make_multiget([(0, 1.0)])
        with pytest.raises(ConfigError):
            collector.record_request(request)

    def test_rct_computed(self):
        collector = MetricsCollector()
        collector.record_request(finished_request(arrival=2.0, completion=5.0))
        assert collector.rcts()[0] == pytest.approx(3.0)

    def test_warmup_filters_by_arrival(self):
        collector = MetricsCollector()
        for i in range(10):
            collector.record_request(
                finished_request(request_id=i, arrival=float(i), completion=i + 1.0)
            )
        assert len(collector.rcts(warmup_time=5.0)) == 5

    def test_cooldown_filter(self):
        collector = MetricsCollector()
        for i in range(10):
            collector.record_request(
                finished_request(request_id=i, arrival=float(i), completion=i + 1.0)
            )
        window = collector.filtered(warmup_time=2.0, cooldown_time=7.0)
        assert len(window) == 6

    def test_columns_equal_the_per_record_arithmetic(self):
        """The vectorised rcts/slowdowns are bit-identical to each
        RequestRecord's own float arithmetic, and records round-trip."""
        rng = np.random.default_rng(5)
        collector = MetricsCollector()
        requests = []
        for i in range(200):
            arrival = float(rng.random() * 10)
            slices = [(int(s), float(d)) for s, d in zip(
                rng.integers(0, 4, size=3), rng.random(3) * 1e-3)]
            request = finished_request(
                request_id=i, arrival=arrival,
                completion=arrival + float(rng.random()), slices=slices,
            )
            collector.record_request(request)
            requests.append(request)
        for warmup in (0.0, 5.0):
            records = collector.filtered(warmup)
            assert collector.rcts(warmup).tobytes() == np.asarray(
                [r.rct for r in records], dtype=np.float64).tobytes()
            assert collector.slowdowns(warmup).tobytes() == np.asarray(
                [r.slowdown for r in records], dtype=np.float64).tobytes()
        for record, request in zip(collector.records, requests):
            assert record.request_id == request.request_id
            assert record.completion_time == request.completion_time
            assert record.total_demand == request.total_demand
            assert record.bottleneck_demand == request.bottleneck_demand()
            assert record.fanout == request.fanout == 3

    def test_warmup_time_for_fraction(self):
        collector = MetricsCollector()
        for i in range(10):
            collector.record_request(
                finished_request(request_id=i, arrival=float(i), completion=i + 1.0)
            )
        assert collector.warmup_time_for_fraction(0.2) == pytest.approx(2.0)
        assert collector.warmup_time_for_fraction(0.0) == 0.0

    def test_mean_rct_empty_raises(self):
        with pytest.raises(ConfigError):
            MetricsCollector().mean_rct()

    def test_slowdown_normalizes_by_bottleneck(self):
        collector = MetricsCollector()
        collector.record_request(
            finished_request(completion=1.0, slices=((0, 0.5),))
        )
        assert collector.slowdowns()[0] == pytest.approx(2.0)


class TestSummary:
    def test_summarize_fields(self):
        stats = summarize(np.arange(1, 101, dtype=float))
        assert stats.count == 100
        assert stats.mean == pytest.approx(50.5)
        assert stats.p50 == pytest.approx(50.5)
        assert stats.minimum == 1.0
        assert stats.maximum == 100.0
        assert stats.p50 <= stats.p90 <= stats.p99 <= stats.p999

    def test_summarize_single_sample(self):
        stats = summarize([5.0])
        assert stats.std == 0.0

    def test_summarize_empty_raises(self):
        with pytest.raises(ConfigError):
            summarize([])

    def test_as_dict_and_str(self):
        stats = summarize([1.0, 2.0, 3.0])
        assert stats.as_dict()["count"] == 3
        assert "mean=" in str(stats)

class TestWindowedSeries:
    def test_window_means(self):
        series = WindowedSeries(window=1.0)
        series.add(0.5, 10.0)
        series.add(0.6, 20.0)
        series.add(1.5, 30.0)
        data = series.series()
        assert data[0] == (0.5, 15.0, 2)
        assert data[1] == (1.5, 30.0, 1)

    def test_max_mean(self):
        series = WindowedSeries(window=1.0)
        series.add(0.1, 1.0)
        series.add(5.1, 9.0)
        assert series.max_mean() == 9.0

    def test_empty_max_mean_raises(self):
        with pytest.raises(ConfigError):
            WindowedSeries(1.0).max_mean()

    def test_validation(self):
        with pytest.raises(ConfigError):
            WindowedSeries(0)
        series = WindowedSeries(1.0)
        with pytest.raises(ConfigError):
            series.add(-1.0, 5.0)

    def test_arrays(self):
        series = WindowedSeries(window=2.0)
        series.add(1.0, 4.0)
        assert list(series.times()) == [1.0]
        assert list(series.means()) == [4.0]
        assert len(series) == 1
