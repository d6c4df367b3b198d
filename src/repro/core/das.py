"""DAS: the Distributed Adaptive Scheduler.

Client side (:class:`DasTagger`): stamp each operation with the request's
estimated *remaining processing time* (RPT) — the speed-adjusted
bottleneck ``max_s(slice(s) / estimated rate(s))`` — plus the
wait-inclusive *completion horizon* (kept for diagnostics and replica
selection).  Rate estimates come from feedback piggybacked on responses,
so a degraded or slow server automatically inflates the RPT of every
request touching it.

Server side (:class:`DasQueue`): two bands.

* **front band** — operations whose RPT is at or below the adaptive
  threshold, ordered smallest-RPT-first (*SRPT-first*);
* **last band** — operations above the threshold (outlier requests),
  RPT-ordered among themselves, served only when the front band is empty
  (*LRPT-last*).

The threshold is ``k × (EWMA of tagged RPTs)`` with ``k`` driven by the
:class:`~repro.core.adaptive.AdaptiveThreshold` controller: heavy load
shrinks ``k`` toward ``k_min`` (demote outliers more eagerly — trimming
giants most improves the mean when queues are long), light load grows it
toward ``k_max`` (pure SRPT-first; demotion would only delay large
requests for no benefit).  ``k_min`` stays well above 1 so only genuine
outliers are ever demoted — demoting the distribution's body degenerates
into FCFS-of-the-masses and destroys the mean.  A last-band operation
that has waited more than ``starvation_factor × scale`` is promoted to
the very front, bounding starvation (which pure SBF does not).

Ablation switches (experiment A1): ``adaptive=False`` freezes the
threshold multiplier; ``last_band=False`` disables demotion (pure
SRPT-first); ``srpt_front=False`` makes the front band FIFO (pure
LRPT-last).
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import count
from typing import Optional

from repro.core.adaptive import AdaptiveThreshold
from repro.core.estimator import ServerEstimates
from repro.core.priority import rpt_and_horizon
from repro.errors import ConfigError, SchedulerError
from repro.kvstore.items import Operation, Request
from repro.obs.trace import OBS_BAND, OBS_PROMOTED, OBS_THRESHOLD
from repro.schedulers.base import ClientTagger, SchedulingPolicy, ServerQueue
from repro.schedulers.registry import register_policy

TAG_RPT = "rpt"
TAG_HORIZON = "horizon"


class DasTagger(ClientTagger):
    """Stamps operations with the request's RPT and completion horizon."""

    def tag_request(
        self, request: Request, now: float, estimates: Optional[ServerEstimates]
    ) -> None:
        """Write the RPT and horizon tags onto every operation."""
        rpt, horizon = rpt_and_horizon(request, now, estimates)
        for op in request.operations:
            op.tag[TAG_RPT] = rpt
            op.tag[TAG_HORIZON] = horizon


class DasQueue(ServerQueue):
    """The two-band DAS queue at one server."""

    def __init__(
        self,
        controller: AdaptiveThreshold,
        scale_alpha: float = 0.05,
        starvation_factor: float = 30.0,
        srpt_front: bool = True,
        last_band: bool = True,
    ):
        super().__init__()
        if not 0 < scale_alpha <= 1:
            raise ConfigError("scale_alpha must be in (0, 1]")
        if starvation_factor <= 0:
            raise ConfigError("starvation_factor must be positive")
        self.controller = controller
        self._scale_alpha = scale_alpha
        #: EWMA of tagged RPTs; None until the first push.
        self._scale: Optional[float] = None
        self._starvation_factor = starvation_factor
        self._srpt_front = srpt_front
        self._last_band_enabled = last_band
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
        return self.controller.threshold(self.rpt_scale)

    @property
    def front_length(self) -> int:
        """Live operations in the front band (promoted ops included)."""
        return len(self._front)

    @property
    def last_length(self) -> int:
        """Live operations in the last band (tombstones excluded)."""
        return len(self._last_index)

    # ------------------------------------------------------------------
    def _push(self, op: Operation, now: float) -> None:
        tag = op.tag
        rpt = float(tag.get(TAG_RPT, op.demand))
        # Classify against the scale *before* folding this item in, so an
        # outlier cannot raise the threshold past itself.
        prev_scale = self._scale
        if prev_scale is None:
            self._scale = rpt
        else:
            self._scale = prev_scale + self._scale_alpha * (rpt - prev_scale)
        self.controller.observe(self._length + 1, now)
        threshold = None
        if prev_scale is not None:
            threshold = tag[OBS_THRESHOLD] = self.controller.threshold(prev_scale)
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
        self.controller.observe(self._length, now)
        # Fast path: no demoted operations means no aging to check and no
        # threshold/budget to evaluate — the common case at light load,
        # where pop is just a front-band heappop.
        if not self._last_by_age:
            if self._front:
                return heapq.heappop(self._front)[2]
            return self._pop_last()
        # Starvation bound: promote the oldest last-band operation once it
        # has waited beyond the budget; it jumps to the very front.
        budget = self._starvation_factor * max(self.threshold, self.rpt_scale)
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
    scale_alpha:
        EWMA weight for the per-server mean-RPT scale (default 0.05).
    starvation_factor:
        Last-band wait budget in scale units (default 30).
    adaptive:
        Enable the threshold controller (default True).
    srpt_front:
        Order the front band smallest-RPT-first (default True).
    last_band:
        Enable LRPT-last demotion (default True).
    k_init, k_min, k_max, q_low, q_high, gain, ctrl_alpha, adapt_interval:
        Controller knobs, see :class:`~repro.core.adaptive.AdaptiveThreshold`.
    """

    name = "das"
    needs_feedback = True

    def __init__(
        self,
        scale_alpha: float = 0.05,
        starvation_factor: float = 30.0,
        adaptive: bool = True,
        srpt_front: bool = True,
        last_band: bool = True,
        k_init: float = 8.0,
        k_min: float = 4.0,
        k_max: float = 64.0,
        q_low: float = 2.0,
        q_high: float = 10.0,
        gain: float = 0.05,
        ctrl_alpha: float = 0.1,
        adapt_interval: float = 1e-3,
    ):
        super().__init__(
            scale_alpha=scale_alpha,
            starvation_factor=starvation_factor,
            adaptive=adaptive,
            srpt_front=srpt_front,
            last_band=last_band,
            k_init=k_init,
            k_min=k_min,
            k_max=k_max,
            q_low=q_low,
            q_high=q_high,
            gain=gain,
            ctrl_alpha=ctrl_alpha,
            adapt_interval=adapt_interval,
        )
        self.scale_alpha = scale_alpha
        self.starvation_factor = starvation_factor
        self.adaptive = adaptive
        self.srpt_front = srpt_front
        self.last_band = last_band
        self.k_init = k_init
        self.k_min = k_min
        self.k_max = k_max
        self.q_low = q_low
        self.q_high = q_high
        self.gain = gain
        self.ctrl_alpha = ctrl_alpha
        self.adapt_interval = adapt_interval

    def make_queue(self) -> ServerQueue:
        """Build one server's :class:`DasQueue` with its own controller."""
        controller = AdaptiveThreshold(
            k_init=self.k_init,
            k_min=self.k_min,
            k_max=self.k_max,
            q_low=self.q_low,
            q_high=self.q_high,
            gain=self.gain,
            alpha=self.ctrl_alpha,
            adapt_interval=self.adapt_interval,
            enabled=self.adaptive,
        )
        return DasQueue(
            controller,
            scale_alpha=self.scale_alpha,
            starvation_factor=self.starvation_factor,
            srpt_front=self.srpt_front,
            last_band=self.last_band,
        )

    def make_tagger(self) -> ClientTagger:
        """Build the client-side tagger paired with this policy."""
        return DasTagger()
