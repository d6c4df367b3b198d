"""Observability: counter/gauge/histogram registry + request tracing.

See ``docs/architecture.md`` ("Observability") for the span lifecycle,
the metric naming scheme, and the export formats.
"""

from repro.obs.bridge import register_queue_gauges
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import (
    OBS_BAND,
    OBS_FAULT,
    OBS_PROMOTED,
    OBS_THRESHOLD,
    TRACE_REQUESTED,
    OpSpan,
    RequestTrace,
    Tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "OBS_BAND",
    "OBS_FAULT",
    "OBS_PROMOTED",
    "OBS_THRESHOLD",
    "OpSpan",
    "RequestTrace",
    "TRACE_REQUESTED",
    "Tracer",
    "register_queue_gauges",
]
