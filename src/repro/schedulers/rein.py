"""Rein-style multiget scheduling: Shortest Bottleneck First.

Rein (Reda et al., EuroSys 2017) observed that a multiget's completion is
governed by its *bottleneck* — the largest per-server slice of the request
— and schedules the smallest bottleneck first.  Two variants:

* ``sbf``: pure shortest-bottleneck-first priority queue (the "Rein-SBF"
  the paper compares against).
* ``rein-ml``: SBF split into priority levels with aging promotion, the
  starvation-bounded variant Rein deploys.

Both are static per-dispatch: the bottleneck is computed from the request
itself and never reflects queue state — exactly the gap DAS's adaptive
estimates close.
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import count
from typing import Optional

from repro.kvstore.items import Operation, Request
from repro.schedulers.base import ClientTagger, SchedulingPolicy, ServerQueue
from repro.schedulers.keyed import KeyedHeapQueue
from repro.schedulers.registry import register_policy

TAG_BOTTLENECK = "bottleneck"

#: ``rein-ml`` demotes a bottleneck above ``SPLIT_K ×`` the running mean.
SPLIT_K = 4.0
#: Low-level wait budget, in units of the mean bottleneck.
AGING_LIMIT = 50.0
#: EWMA weight of the running mean bottleneck.
EWMA_ALPHA = 0.05


class BottleneckTagger(ClientTagger):
    """Stamps each operation with its request's bottleneck demand."""

    def tag_request(self, request: Request, now: float, estimates: Optional[object]) -> None:
        bottleneck = request.bottleneck_demand()
        for op in request.operations:
            op.tag[TAG_BOTTLENECK] = bottleneck


@register_policy
class SbfPolicy(SchedulingPolicy):
    """Rein's Shortest Bottleneck First (pure priority form)."""

    name = "sbf"

    def make_queue(self) -> ServerQueue:
        return KeyedHeapQueue(TAG_BOTTLENECK)

    def make_tagger(self) -> ClientTagger:
        return BottleneckTagger()


class ReinMlQueue(ServerQueue):
    """SBF split into priority levels with aging promotion.

    Operations with bottleneck above ``SPLIT_K ×`` the running mean go to
    the low level, others to the high level.  High is served SBF-ordered;
    low is served FIFO only when high is empty.  A low-level operation
    waiting longer than ``AGING_LIMIT ×`` the mean bottleneck is promoted
    so large multigets cannot starve.
    """

    def __init__(self) -> None:
        super().__init__()
        self._high: list[tuple[float, int, Operation]] = []
        self._low: deque[Operation] = deque()
        self._seq = count()
        self._mean_bottleneck: Optional[float] = None
        self.promotions = 0

    def _push(self, op: Operation, now: float) -> None:
        bottleneck = op.tag.get(TAG_BOTTLENECK, op.demand)
        # Classify against the mean *before* folding this item in, so an
        # outlier cannot raise the split past itself.
        demote = (
            self._mean_bottleneck is not None
            and bottleneck > SPLIT_K * self._mean_bottleneck
        )
        if self._mean_bottleneck is None:
            self._mean_bottleneck = bottleneck
        else:
            self._mean_bottleneck += EWMA_ALPHA * (bottleneck - self._mean_bottleneck)
        if demote:
            self._low.append(op)
        else:
            heapq.heappush(self._high, (bottleneck, next(self._seq), op))

    def _pop(self, now: float) -> Operation:
        # Aging: promote the low head if it has waited too long.  Promoted
        # operations jump to the very front (key 0) regardless of size.
        scale = self._mean_bottleneck or 0.0
        while self._low and scale > 0:
            head = self._low[0]
            if now - head.enqueue_time > AGING_LIMIT * scale:
                self._low.popleft()
                heapq.heappush(self._high, (0.0, next(self._seq), head))
                self.promotions += 1
            else:
                break
        if self._high:
            return heapq.heappop(self._high)[2]
        return self._low.popleft()


@register_policy
class ReinMlPolicy(SchedulingPolicy):
    """Rein SBF with multilevel feedback (starvation-bounded)."""

    name = "rein-ml"

    def make_queue(self) -> ServerQueue:
        return ReinMlQueue()

    def make_tagger(self) -> ClientTagger:
        return BottleneckTagger()
