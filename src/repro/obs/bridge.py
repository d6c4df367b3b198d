"""Bind live scheduler/queue state to registry gauges.

The bridge registers *callback-backed* gauges that read the queue's own
attributes at export time, so the exported numbers are the queue's truth
by construction (no copy to go stale).  Duck-typed on purpose: any
:class:`~repro.schedulers.base.ServerQueue` gets the generic gauges, and
a laned queue (a ``lanes`` attribute present) additionally gets one set
per lane — without this module importing any policy.
"""

from __future__ import annotations

from repro.obs.registry import MetricsRegistry


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
