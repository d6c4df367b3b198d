"""DAS: the Distributed Adaptive Scheduler.

Client side (:class:`DasTagger`): stamp each operation with the request's
estimated *remaining processing time* (RPT) — the speed-adjusted
bottleneck ``max_s(slice(s) / estimated rate(s))``.  Rate estimates come
from feedback piggybacked on responses, so a degraded or slow server
automatically inflates the RPT of every request touching it.  With no
estimates (cold start, feedback disabled) the RPT is the static
bottleneck demand, i.e. DAS falls back to Rein-SBF ordering.

Server side (:class:`DasQueue`): two bands.

* **front band** — operations whose RPT is at or below the adaptive
  threshold, ordered smallest-RPT-first (*SRPT-first*);
* **last band** — operations above the threshold (outlier requests),
  RPT-ordered among themselves, served only when the front band is empty
  (*LRPT-last*).

The threshold is ``k × (EWMA of tagged RPTs)``.  Each queue drives its
own ``k`` by multiplicative increase/decrease on an EWMA of its queue
length: a queue persistently longer than ``Q_HIGH`` shrinks ``k`` toward
``k_min`` (demote outliers more eagerly — trimming giants most improves
the mean when queues are long), one persistently shorter than ``Q_LOW``
grows it toward ``K_MAX`` (pure SRPT-first; demotion would only delay
large requests for no benefit).  ``k_min`` stays well above 1 so only
genuine outliers are ever demoted — demoting the distribution's body
degenerates into FCFS-of-the-masses and destroys the mean.  A last-band
operation that has waited more than ``STARVATION_FACTOR × scale`` is
promoted to the very front, bounding starvation (which pure SBF does
not).

Ablation switches (experiment A1): ``adaptive=False`` freezes ``k`` at
``K_INIT``; ``last_band=False`` disables demotion (pure SRPT-first);
``srpt_front=False`` makes the front band FIFO (pure LRPT-last).
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import count
from typing import Dict, Optional, Tuple

from repro.core.estimator import ServerEstimates
from repro.errors import ConfigError, SchedulerError
from repro.kvstore.items import Operation, Request
from repro.obs.trace import OBS_BAND, OBS_PROMOTED, OBS_THRESHOLD
from repro.schedulers.base import ClientTagger, SchedulingPolicy, ServerQueue
from repro.schedulers.registry import register_policy

TAG_RPT = "rpt"

#: EWMA weight of the per-server mean-RPT scale.
SCALE_ALPHA = 0.05
#: Last-band wait budget, in units of ``max(threshold, scale)``.
STARVATION_FACTOR = 30.0
#: Starting, default-floor and ceiling values of the multiplier ``k``.
K_INIT = 8.0
K_MIN = 4.0
K_MAX = 64.0
#: Smoothed queue length below which ``k`` grows, above which it shrinks.
Q_LOW = 2.0
Q_HIGH = 10.0
#: Multiplicative step of one adjustment of ``k``.
GAIN = 0.05
#: EWMA weight of queue-length samples.
CTRL_ALPHA = 0.1
#: Minimum time between adjustments, so the controller's speed is
#: load-independent.
ADAPT_INTERVAL = 1e-3
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


class DasQueue(ServerQueue):
    """The two-band DAS queue at one server, with its own ``k`` controller."""

    def __init__(
        self,
        adaptive: bool = True,
        srpt_front: bool = True,
        last_band: bool = True,
        k_min: float = K_MIN,
    ):
        super().__init__()
        if not 0 < k_min <= K_INIT:
            raise ConfigError(f"k_min must be in (0, {K_INIT}], got {k_min}")
        self._adaptive = adaptive
        self._srpt_front = srpt_front
        self._last_band_enabled = last_band
        self._k_min = k_min
        #: Demotion multiplier, moved by :meth:`_move_k`.
        self.k = K_INIT
        #: EWMA of observed queue lengths; None before the first sample.
        self._pressure: Optional[float] = None
        self._last_adapt = float("-inf")
        self.adjustments = 0
        #: EWMA of tagged RPTs; None until the first push.
        self._scale: Optional[float] = None
        self._front: list[tuple[float, int, Operation]] = []
        #: Last band: RPT-ordered heap of mutable ``[rpt, seq, op]``
        #: entries (demoted ops keep size order among themselves) plus an
        #: arrival deque for aging checks.  A promotion tombstones its
        #: heap entry in place (``entry[2] = None``); ``_last_index``
        #: maps ``id(op)`` to the live entry, so band lengths count live
        #: operations only and a heap of pure tombstones is detectable.
        self._last: list[list] = []
        self._last_index: dict[int, list] = {}
        self._last_by_age: deque[Operation] = deque()
        self._seq = count()
        self.demotions = 0
        self.promotions = 0

    # ------------------------------------------------------------------
    @property
    def rpt_scale(self) -> float:
        """Running mean of tagged RPTs (the threshold's scale)."""
        return self._scale if self._scale is not None else 0.0

    @property
    def threshold(self) -> float:
        """Current demotion threshold in RPT units."""
        return self.k * self.rpt_scale

    @property
    def queue_pressure(self) -> float:
        """Smoothed queue length the controller is reacting to."""
        return self._pressure if self._pressure is not None else 0.0

    @property
    def front_length(self) -> int:
        """Live operations in the front band (promoted ops included)."""
        return len(self._front)

    @property
    def last_length(self) -> int:
        """Live operations in the last band (tombstones excluded)."""
        return len(self._last_index)

    def __repr__(self) -> str:
        return (
            f"DasQueue(k={self.k:.3f}, pressure={self.queue_pressure:.2f}, "
            f"adjustments={self.adjustments})"
        )

    # ------------------------------------------------------------------
    def _adapt(self, queue_length: int, now: float) -> None:
        """Fold a queue-length sample into the pressure; maybe move ``k``.

        :meth:`_push` and :meth:`_pop` take their sample with these same
        statements written out, so the per-op path makes no call for it.
        """
        pressure = self._pressure
        pressure = (
            float(queue_length)
            if pressure is None
            else pressure + CTRL_ALPHA * (queue_length - pressure)
        )
        self._pressure = pressure
        if self._adaptive and now - self._last_adapt >= ADAPT_INTERVAL:
            self._move_k(pressure, now)

    def _move_k(self, pressure: float, now: float) -> None:
        """One controller step, at most once per :data:`ADAPT_INTERVAL`."""
        self._last_adapt = now
        if pressure > Q_HIGH and self.k > self._k_min:
            self.k = max(self._k_min, self.k * (1.0 - GAIN))
            self.adjustments += 1
        elif pressure < Q_LOW and self.k < K_MAX:
            self.k = min(K_MAX, self.k * (1.0 + GAIN))
            self.adjustments += 1

    def _push(self, op: Operation, now: float) -> None:
        tag = op.tag
        rpt = float(tag.get(TAG_RPT, op.demand))
        # Classify against the scale *before* folding this item in, so an
        # outlier cannot raise the threshold past itself.
        prev_scale = self._scale
        if prev_scale is None:
            self._scale = rpt
        else:
            self._scale = prev_scale + SCALE_ALPHA * (rpt - prev_scale)
        # _adapt(self._length + 1, now), written out:
        queue_length = self._length + 1
        pressure = self._pressure
        pressure = (
            float(queue_length)
            if pressure is None
            else pressure + CTRL_ALPHA * (queue_length - pressure)
        )
        self._pressure = pressure
        if self._adaptive and now - self._last_adapt >= ADAPT_INTERVAL:
            self._move_k(pressure, now)
        threshold = None
        if prev_scale is not None:
            threshold = tag[OBS_THRESHOLD] = self.k * prev_scale
        if self._last_band_enabled and threshold is not None and rpt > threshold:
            entry = [rpt, next(self._seq), op]
            heapq.heappush(self._last, entry)
            self._last_index[id(op)] = entry
            self._last_by_age.append(op)
            self.demotions += 1
            tag[OBS_BAND] = "last"
        else:
            # SRPT-first orders by RPT; the FIFO ablation by enqueue time.
            key = rpt if self._srpt_front else op.enqueue_time
            heapq.heappush(self._front, (key, next(self._seq), op))
            tag[OBS_BAND] = "front"

    def _pop_last(self) -> Operation:
        """Pop the smallest-RPT live entry from the last band."""
        while self._last:
            entry = heapq.heappop(self._last)
            op = entry[2]
            if op is None:
                continue  # tombstone left by a promotion
            del self._last_index[id(op)]
            return op
        raise SchedulerError("last band has no live operations")

    def _pop(self, now: float) -> Operation:
        # _adapt(self._length, now), written out:
        queue_length = self._length
        pressure = self._pressure
        pressure = (
            float(queue_length)
            if pressure is None
            else pressure + CTRL_ALPHA * (queue_length - pressure)
        )
        self._pressure = pressure
        if self._adaptive and now - self._last_adapt >= ADAPT_INTERVAL:
            self._move_k(pressure, now)
        # Fast path: no demoted operations means no aging to check and no
        # threshold/budget to evaluate — the common case at light load,
        # where pop is just a front-band heappop.
        if not self._last_by_age:
            if self._front:
                return heapq.heappop(self._front)[2]
            return self._pop_last()
        # Starvation bound: promote the oldest last-band operation once it
        # has waited beyond the budget; it jumps to the very front.
        budget = STARVATION_FACTOR * max(self.threshold, self.rpt_scale)
        while self._last_by_age and budget > 0:
            head = self._last_by_age[0]
            entry = self._last_index.get(id(head))
            if entry is None or entry[2] is not head:
                # Already served via _pop_last (or id collision with a
                # later op); drop the stale age record.
                self._last_by_age.popleft()
                continue
            if now - head.enqueue_time > budget:
                self._last_by_age.popleft()
                del self._last_index[id(head)]
                entry[2] = None  # tombstone the heap entry in place
                heapq.heappush(self._front, (float("-inf"), next(self._seq), head))
                self.promotions += 1
                head.tag[OBS_PROMOTED] = True
            else:
                break
        if self._front:
            return heapq.heappop(self._front)[2]
        op = self._pop_last()
        if self._last_by_age and self._last_by_age[0] is op:
            self._last_by_age.popleft()
        return op


@register_policy
class DasPolicy(SchedulingPolicy):
    """Distributed Adaptive Scheduler (the paper's contribution).

    Parameters
    ----------
    adaptive:
        Let each queue move its demotion multiplier ``k`` (default True).
    srpt_front:
        Order the front band smallest-RPT-first (default True).
    last_band:
        Enable LRPT-last demotion (default True).
    k_min:
        Floor of ``k`` under sustained pressure, in ``(0, K_INIT]``
        (default ``K_MIN``).
    """

    name = "das"
    needs_feedback = True

    def __init__(
        self,
        adaptive: bool = True,
        srpt_front: bool = True,
        last_band: bool = True,
        k_min: float = K_MIN,
    ):
        self.params = dict(
            adaptive=adaptive, srpt_front=srpt_front, last_band=last_band, k_min=k_min
        )

    def make_queue(self) -> ServerQueue:
        """Build one server's :class:`DasQueue`."""
        return DasQueue(**self.params)

    def make_tagger(self) -> ClientTagger:
        """Build the client-side tagger paired with this policy."""
        return DasTagger()
