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

from repro.errors import ConfigError
from repro.kvstore.items import Operation, Request
from repro.schedulers.base import ClientTagger, SchedulingPolicy, ServerQueue
from repro.schedulers.registry import register_policy

TAG_BOTTLENECK = "bottleneck"


class BottleneckTagger(ClientTagger):
    """Stamps each operation with its request's bottleneck demand."""

    def tag_request(self, request: Request, now: float, estimates: Optional[object]) -> None:
        bottleneck = request.bottleneck_demand()
        for op in request.operations:
            op.tag[TAG_BOTTLENECK] = bottleneck


class SbfQueue(ServerQueue):
    """Smallest tagged bottleneck first; FIFO among equals."""

    def __init__(self) -> None:
        super().__init__()
        self._heap: list[tuple[float, int, Operation]] = []
        self._seq = count()

    def _push(self, op: Operation, now: float) -> None:
        key = op.tag.get(TAG_BOTTLENECK, op.demand)
        heapq.heappush(self._heap, (key, next(self._seq), op))

    def _pop(self, now: float) -> Operation:
        return heapq.heappop(self._heap)[2]


@register_policy
class SbfPolicy(SchedulingPolicy):
    """Rein's Shortest Bottleneck First (pure priority form)."""

    name = "sbf"

    def make_queue(self) -> ServerQueue:
        return SbfQueue()

    def make_tagger(self) -> ClientTagger:
        return BottleneckTagger()


class ReinMlQueue(ServerQueue):
    """SBF split into priority levels with aging promotion.

    Operations with bottleneck below the running-mean-scaled split go to
    the high level, others to the low level.  High is served SBF-ordered;
    low is served FIFO only when high is empty.  A low-level operation
    waiting longer than ``aging_limit × mean bottleneck`` is promoted so
    large multigets cannot starve.
    """

    def __init__(
        self,
        split_k: float,
        aging_limit: float,
        ewma_alpha: float,
    ):
        super().__init__()
        if split_k <= 0:
            raise ConfigError("split_k must be positive")
        if aging_limit <= 0:
            raise ConfigError("aging_limit must be positive")
        if not 0 < ewma_alpha <= 1:
            raise ConfigError("ewma_alpha must be in (0, 1]")
        self._high: list[tuple[float, int, Operation]] = []
        self._low: deque[Operation] = deque()
        self._seq = count()
        self._split_k = split_k
        self._aging_limit = aging_limit
        self._alpha = ewma_alpha
        self._mean_bottleneck: Optional[float] = None
        self.promotions = 0

    def _push(self, op: Operation, now: float) -> None:
        bottleneck = op.tag.get(TAG_BOTTLENECK, op.demand)
        # Classify against the mean *before* folding this item in, so an
        # outlier cannot raise the split past itself.
        demote = (
            self._mean_bottleneck is not None
            and bottleneck > self._split_k * self._mean_bottleneck
        )
        if self._mean_bottleneck is None:
            self._mean_bottleneck = bottleneck
        else:
            self._mean_bottleneck += self._alpha * (bottleneck - self._mean_bottleneck)
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
            if now - head.enqueue_time > self._aging_limit * scale:
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
    """Rein SBF with multilevel feedback (starvation-bounded).

    Parameters
    ----------
    split_k:
        High/low split at ``split_k × running mean bottleneck`` (default 4).
    aging_limit:
        Low-level wait budget in units of the mean bottleneck (default 50).
    ewma_alpha:
        Smoothing of the running mean bottleneck (default 0.05).
    """

    name = "rein-ml"

    def __init__(
        self,
        split_k: float = 4.0,
        aging_limit: float = 50.0,
        ewma_alpha: float = 0.05,
    ):
        super().__init__(split_k=split_k, aging_limit=aging_limit, ewma_alpha=ewma_alpha)
        self.split_k = split_k
        self.aging_limit = aging_limit
        self.ewma_alpha = ewma_alpha

    def make_queue(self) -> ServerQueue:
        return ReinMlQueue(self.split_k, self.aging_limit, self.ewma_alpha)

    def make_tagger(self) -> ClientTagger:
        return BottleneckTagger()
