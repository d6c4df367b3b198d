"""Bind live scheduler/queue state to registry gauges.

The bridge registers *callback-backed* gauges that read the queue's own
attributes at export time, so the exported numbers are the queue's truth
by construction (no copy to go stale).  Duck-typed on purpose: any
:class:`~repro.schedulers.base.ServerQueue` gets the generic gauges, and
DAS-shaped queues (a ``demotions`` counter present) additionally get the
adaptive-scheduler set — without this module importing any policy.
"""

from __future__ import annotations

from repro.obs.registry import MetricsRegistry

#: The adaptive-scheduler gauges: ``(name, help, DasQueue attribute)``.
_DAS_GAUGES = (
    ("das_k", "Adaptive demotion multiplier k", "k"),
    ("das_queue_pressure", "EWMA queue length driving the controller", "queue_pressure"),
    ("das_threshold", "Current demotion threshold (RPT seconds)", "threshold"),
    ("das_rpt_scale", "EWMA of tagged RPTs (the threshold scale)", "rpt_scale"),
    ("das_front_length", "Live operations in the front band", "front_length"),
    ("das_last_length", "Live operations in the last band", "last_length"),
    ("das_demotions_total", "Operations demoted to the last band (monotone)", "demotions"),
    (
        "das_promotions_total",
        "Starvation promotions out of the last band (monotone)",
        "promotions",
    ),
)


def register_queue_gauges(registry: MetricsRegistry, queue, server_id) -> None:
    """Register live gauges for one server's queue under ``server=<id>``."""
    sid = str(server_id)
    registry.gauge(
        "queue_length", "Operations currently queued", fn=lambda: len(queue), server=sid
    )
    registry.gauge(
        "queue_queued_demand",
        "Total queued service demand (reference seconds)",
        fn=lambda: queue.queued_demand,
        server=sid,
    )
    lanes = getattr(queue, "lanes", None)
    if lanes is not None:
        registry.gauge(
            "lane_size_cutoff",
            "Current small/large routing cutoff (bytes)",
            fn=lambda: queue.cutoff,
            server=sid,
        )
        for lane in lanes:
            registry.gauge(
                "lane_queue_length",
                "Operations queued in this lane",
                fn=lambda lq=queue, ln=lane: float(lq.lane_length(ln)),
                server=sid,
                lane=lane,
            )
            registry.gauge(
                "lane_queued_demand",
                "Queued service demand in this lane (reference seconds)",
                fn=lambda lq=queue, ln=lane: lq.lane_demand(ln),
                server=sid,
                lane=lane,
            )
            registry.gauge(
                "lane_routed_total",
                "Operations routed to this lane (monotone)",
                fn=lambda lq=queue, ln=lane: float(lq.routed[ln]),
                server=sid,
                lane=lane,
            )
            registry.gauge(
                "lane_served_demand",
                "Demand-seconds dispatched from this lane (monotone)",
                fn=lambda lq=queue, ln=lane: lq.consumed[ln],
                server=sid,
                lane=lane,
            )
    if not hasattr(queue, "demotions"):
        return
    for name, help_text, attr in _DAS_GAUGES:
        registry.gauge(
            name, help_text, fn=lambda attr=attr: getattr(queue, attr), server=sid
        )
