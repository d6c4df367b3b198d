"""DAS: the Distributed Adaptive Scheduler, rate-adjusted shortest-bottleneck-first.

Client side (:class:`DasTagger`): stamp each operation with the request's
estimated *remaining processing time* (RPT) — the speed-adjusted
bottleneck ``max_s(slice(s) / estimated rate(s))``.  Rate estimates come
from feedback piggybacked on responses, so a degraded or slow server
automatically inflates the RPT of every request touching it.  With no
estimates (cold start, feedback disabled) the RPT is the static
bottleneck demand, i.e. DAS falls back to Rein-SBF ordering.

Server side: one :class:`~repro.schedulers.keyed.KeyedHeapQueue` keyed on
the RPT tag, smallest first (*SRPT-first*), FIFO among equals.  The
abstract's second half, *LRPT-last* (a demotion band for outlier
requests with a starvation bound), was reconstructed and measured, and
did not survive: on heavy-tailed fan-out-8 mixes it multiplied the mean
RCT up to 6x against the same queue without it (design history in
DESIGN.md §2).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.estimator import ServerEstimates
from repro.kvstore.items import Request
from repro.schedulers.base import ClientTagger, SchedulingPolicy, ServerQueue
from repro.schedulers.keyed import KeyedHeapQueue
from repro.schedulers.registry import register_policy

TAG_RPT = "rpt"

#: Floor on a rate estimate, so a zero estimate cannot divide by zero.
_MIN_RATE = 1e-9


def rpt_of_slices(
    demands: Dict[int, float], estimates: Optional[ServerEstimates]
) -> Tuple[float, float]:
    """The rank of a request whose slices place ``demands`` on their servers.

    ``demands`` maps each touched server to the summed demand of the
    request's operations there.  Returns ``(rpt, bottleneck)``: the
    speed-adjusted bottleneck ``max_s(demand_s / rate_s)`` (the raw
    ``demand_s`` when there are no estimates) and the raw one.  Clock
    free; both halves rank their requests here, the simulated client
    from the sums it adds up while building a request, the runtime
    client from its key slices' demand guesses.
    """
    rpt = bottleneck = 0.0
    if estimates is None:
        for demand in demands.values():
            if demand > bottleneck:
                bottleneck = demand
        return bottleneck, bottleneck
    servers = estimates._servers
    default_rate = estimates.default_rate
    for server_id, demand in demands.items():
        if demand > bottleneck:
            bottleneck = demand
        # estimates.rate(server_id), written out.
        state = servers.get(server_id)
        rate = default_rate if state is None or state.rate is None else state.rate
        adjusted = demand / max(rate, _MIN_RATE)
        if adjusted > rpt:
            rpt = adjusted
    return rpt, bottleneck


def remaining_processing_time(
    request: Request, now: float, estimates: Optional[ServerEstimates]
) -> float:
    """Speed-adjusted bottleneck of ``request`` (the SRPT ranking key).

    Deliberately load-independent: ranking by queue-wait-inflated values
    would freeze transient congestion into permanent priorities and
    starve requests dispatched during spikes.  The pass also sees the
    request's raw bottleneck, so it leaves it on the request for whoever
    asks :meth:`Request.bottleneck_demand` later.
    """
    rpt, request.bottleneck = rpt_of_slices(request.demands_by_server(), estimates)
    return rpt


class DasTagger(ClientTagger):
    """Stamps operations with the request's RPT."""

    def tag_request(
        self, request: Request, now: float, estimates: Optional[ServerEstimates]
    ) -> None:
        """Write the RPT tag onto every operation."""
        rpt = remaining_processing_time(request, now, estimates)
        for op in request.operations:
            op.tag[TAG_RPT] = rpt


@register_policy
class DasPolicy(SchedulingPolicy):
    """Distributed Adaptive Scheduler (the paper's contribution).

    Knobless: what adapts is the client's rate estimates, which the
    estimator's own configuration tunes.
    """

    name = "das"
    needs_feedback = True

    def make_queue(self) -> ServerQueue:
        """Build one server's queue: smallest RPT tag first."""
        return KeyedHeapQueue(TAG_RPT)

    def make_tagger(self) -> ClientTagger:
        """Build the client-side tagger paired with this policy."""
        return DasTagger()
