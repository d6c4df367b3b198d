"""Per-request shortest-job-first.

``sjf-req`` orders by the *request's total* demand, stamped by the client
at dispatch — the non-adaptive "SRPT-first" half of DAS in isolation
(demands are static after dispatch, so this is shortest-job, not
shortest-remaining).  An untagged operation is keyed on its own demand,
so at fan-out 1 this is classic per-operation SJF.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Optional

from repro.kvstore.items import Operation, Request
from repro.schedulers.base import ClientTagger, SchedulingPolicy, ServerQueue
from repro.schedulers.registry import register_policy

TAG_TOTAL_DEMAND = "total_demand"


class TotalDemandTagger(ClientTagger):
    """Stamps each operation with its request's total demand."""

    def tag_request(self, request: Request, now: float, estimates: Optional[object]) -> None:
        total = request.total_demand
        for op in request.operations:
            op.tag[TAG_TOTAL_DEMAND] = total


class SjfReqQueue(ServerQueue):
    """Smallest request total-demand first; FIFO among equals."""

    def __init__(self) -> None:
        super().__init__()
        self._heap: list[tuple[float, int, Operation]] = []
        self._seq = count()

    def _push(self, op: Operation, now: float) -> None:
        key = op.tag.get(TAG_TOTAL_DEMAND, op.demand)
        heapq.heappush(self._heap, (key, next(self._seq), op))

    def _pop(self, now: float) -> Operation:
        return heapq.heappop(self._heap)[2]


@register_policy
class SjfReqPolicy(SchedulingPolicy):
    """Per-request shortest-job-first on total demand."""

    name = "sjf-req"

    def make_queue(self) -> ServerQueue:
        return SjfReqQueue()

    def make_tagger(self) -> ClientTagger:
        return TotalDemandTagger()
