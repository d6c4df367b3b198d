"""Two-lane queue: size routing first, scheduling policy within a lane.

The lane layer composes with — rather than replaces — the existing
scheduler zoo: each lane holds its *own* queue built from the inner
policy, so DAS's bands (or SBF's size ordering, or plain FCFS) operate
unchanged inside a lane.  Routing is by operation value size against the
cutoff estimator: a multi-KB get can no longer head-of-line-block the
sub-KB majority because it never enters their queue.

Capacity shares are realized as weighted fair queueing (the classic
single-server reduction of generalized processor sharing): the server
still serves one operation at a time at full speed, and when *both*
lanes are backlogged the dispatcher picks the lane whose normalized
service credit (dispatched demand divided by its share) is lowest.  A
lane with nothing queued cedes the server to the other lane — the
discipline is work-conserving — and a lane that wakes from idle has its
credit clamped forward so it cannot replay banked idle time as a burst
that starves the other lane.

The net effect: small operations never sit in a queue behind a large
one (they can at most wait out the single large already on the CPU,
which no non-preemptive discipline avoids), while consecutive large
operations are spaced ``small_share / (1 - small_share)`` demand-units
apart instead of monopolizing the server back to back.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.errors import ConfigError, SchedulerError
from repro.schedulers.base import SchedulingPolicy, ServerQueue
from repro.sharding.cutoff import WindowedQuantileCutoff

SMALL = "small"
LARGE = "large"


def op_size(op) -> float:
    """Bytes an operation moves: sim ops carry ``value_size``, runtime
    ops carry ``size``."""
    size = getattr(op, "value_size", None)
    if size is None:
        size = getattr(op, "size", 0)
    return size


class SizeLaneQueue(ServerQueue):
    """A :class:`ServerQueue` that fans pushes into per-lane inner queues.

    Routing happens at push time against the then-current cutoff; the
    chosen lane is stamped into ``op.tag["lane"]`` and the cutoff
    estimator observes the size.  Queued operations are never re-routed
    when the cutoff moves (a queue re-shuffle would be neither
    deployable nor deterministic to reason about).

    :meth:`pop` is the weighted-fair dispatcher described in the module
    docstring; it is also what crash drains and runtime aborts walk, so
    no separate drain path exists.
    """

    #: Lane names, in tie-break priority order.  Presence of this
    #: attribute is how the stats plumbing and the obs bridge duck-type
    #: a laned queue.
    lanes: Tuple[str, str] = (SMALL, LARGE)

    def __init__(
        self,
        inner_policy: SchedulingPolicy,
        cutoff: WindowedQuantileCutoff,
        small_share: float = 0.7,
    ):
        super().__init__()
        if not 0.0 < small_share < 1.0:
            raise ConfigError(
                f"small_share must be in (0, 1), got {small_share}"
            )
        self.cutoff_estimator = cutoff
        self.small_share = small_share
        self._inner: Dict[str, ServerQueue] = {
            lane: inner_policy.make_queue() for lane in self.lanes
        }
        #: Operations routed into each lane at push time.
        self.routed = {lane: 0 for lane in self.lanes}
        #: Operations dispatched out of each lane.
        self.served = {lane: 0 for lane in self.lanes}
        #: Demand-seconds dispatched per lane (the WFQ ledger's raw side).
        self.consumed = {lane: 0.0 for lane in self.lanes}
        #: Normalized WFQ credit: consumed demand / lane share.  The lane
        #: with the *lower* credit is owed service.
        self._credit = {lane: 0.0 for lane in self.lanes}

    # -- introspection ------------------------------------------------------
    @property
    def cutoff(self) -> float:
        """Current routing cutoff in bytes."""
        return self.cutoff_estimator.cutoff

    def share(self, lane: str) -> float:
        """The lane's weighted-fair share of the server's capacity."""
        return self.small_share if lane == SMALL else 1.0 - self.small_share

    def lane_length(self, lane: str) -> int:
        return len(self._inner[lane])

    def lane_demand(self, lane: str) -> float:
        return self._inner[lane].queued_demand

    # -- routing ------------------------------------------------------------
    def _push(self, op, now: float) -> None:
        size = op_size(op)
        self.cutoff_estimator.observe(size)
        lane = SMALL if self.cutoff_estimator.is_small(size) else LARGE
        op.tag["lane"] = lane
        self.routed[lane] += 1
        if len(self._inner[lane]) == 0:
            # Waking from idle: clamp the lane's credit forward to the
            # other lane's progress so idle time is not banked (standard
            # start-time fair-queueing virtual-time catch-up).
            other = LARGE if lane == SMALL else SMALL
            if self._credit[other] > self._credit[lane]:
                self._credit[lane] = self._credit[other]
        self._inner[lane].push(op, now)

    def _pop(self, now: float):
        small_n = len(self._inner[SMALL])
        large_n = len(self._inner[LARGE])
        if small_n and large_n:
            # Both backlogged: weighted fair pick, small wins ties.
            lane = (
                SMALL
                if self._credit[SMALL] <= self._credit[LARGE]
                else LARGE
            )
        elif small_n:
            lane = SMALL
        elif large_n:
            lane = LARGE
        else:
            raise SchedulerError("pop() from an empty laned queue")
        op = self._inner[lane].pop(now)
        self._credit[lane] += op.demand / self.share(lane)
        self.consumed[lane] += op.demand
        self.served[lane] += 1
        return op

    def on_service_complete(self, op, now: float) -> None:
        # Adaptive inner state (DAS controller, EWMAs) lives per lane;
        # completions go to the queue that owned the op.
        self._inner[op.tag.get("lane", SMALL)].on_service_complete(op, now)
