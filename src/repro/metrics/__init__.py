"""Measurement: request-completion-time collection and summaries."""

from repro.metrics.collector import MetricsCollector, RequestRecord
from repro.metrics.summary import SummaryStats
from repro.metrics.timeseries import WindowedSeries

__all__ = [
    "MetricsCollector",
    "RequestRecord",
    "SummaryStats",
    "WindowedSeries",
]
