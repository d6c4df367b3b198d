"""Priority computation for DAS.

DAS uses two request-level quantities, both computable at the client from
local estimates only:

* **remaining processing time (RPT)** — the speed-adjusted bottleneck:
  the largest per-server slice of the request, divided by that server's
  estimated service rate.  This is the *ranking* key (SRPT-first).  It is
  deliberately load-independent: ranking by queue-wait-inflated values
  would freeze transient congestion into permanent priorities and starve
  requests dispatched during spikes.

* **completion horizon** — the wait-inclusive estimate
  ``max_s (queued-work(s) + slice(s)/rate(s))``: how long until the
  request's last operation would finish if dispatched now.  Diagnostic,
  not read by the scheduler: it travels on the operation as the
  ``horizon`` tag, but :class:`~repro.core.das.DasQueue` bands and
  orders by RPT alone.

With no estimates (cold start, feedback disabled) both degrade to the
static bottleneck demand, i.e. DAS falls back to Rein-SBF ordering — the
correct zero-information behaviour.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.estimator import ServerEstimates
from repro.kvstore.items import Request

_MIN_RATE = 1e-9


def rpt_and_horizon(
    request: Request,
    now: float,
    estimates: Optional[ServerEstimates],
) -> Tuple[float, float]:
    """Both quantities from one pass over the per-server demands.

    The pass also sees the request's raw bottleneck, so it leaves it on
    the request for whoever asks :meth:`Request.bottleneck_demand` later.
    """
    rpt = horizon = bottleneck = 0.0
    for server_id, demand in request.demands_by_server().items():
        if demand > bottleneck:
            bottleneck = demand
        if estimates is None:
            adjusted = ahead = demand
        else:
            adjusted = demand / max(estimates.rate(server_id), _MIN_RATE)
            ahead = estimates.queued_work(server_id, now) + adjusted
        if adjusted > rpt:
            rpt = adjusted
        if ahead > horizon:
            horizon = ahead
    request.bottleneck = bottleneck
    return rpt, horizon


def remaining_processing_time(
    request: Request,
    now: float,
    estimates: Optional[ServerEstimates],
) -> float:
    """Speed-adjusted bottleneck of ``request`` (the SRPT ranking key)."""
    return rpt_and_horizon(request, now, estimates)[0]


def completion_horizon(
    request: Request,
    now: float,
    estimates: Optional[ServerEstimates],
) -> float:
    """Wait-inclusive completion estimate of ``request``."""
    return rpt_and_horizon(request, now, estimates)[1]


def residual_processing_time(
    request: Request,
    now: float,
    estimates: Optional[ServerEstimates],
) -> float:
    """Speed-adjusted bottleneck over *unfinished* operations only.

    Diagnostics / re-tagging helper; at dispatch it equals
    :func:`remaining_processing_time` because nothing has finished yet.
    """
    per_server: dict[int, float] = {}
    for op in request.operations:
        if op.finish_time == op.finish_time:  # finished (not NaN)
            continue
        per_server[op.server_id] = per_server.get(op.server_id, 0.0) + op.demand
    worst = 0.0
    for server_id, demand in per_server.items():
        if estimates is None:
            adjusted = demand
        else:
            adjusted = demand / max(estimates.rate(server_id), _MIN_RATE)
        worst = max(worst, adjusted)
    return worst
