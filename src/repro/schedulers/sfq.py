"""Start-time fair queueing (SFQ) across clients.

The classic fairness baseline (Goyal et al., SIGCOMM 1996), adapted to
non-preemptive operation scheduling: each *client* is a flow; an arriving
operation gets a start tag ``max(virtual_time, flow's last finish tag)``
and a finish tag ``start + demand`` (every flow has weight 1); the server
serves the smallest start tag first and advances virtual time to the tag
of the operation in service.  Guarantees each client an equal share of
server capacity regardless of its request sizes — the opposite trade to
size-based policies like SBF/DAS.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Dict

from repro.kvstore.items import Operation
from repro.schedulers.base import SchedulingPolicy, ServerQueue
from repro.schedulers.registry import register_policy


class SfqQueue(ServerQueue):
    """Per-client start-time fair queueing at one server, equal weights."""

    def __init__(self) -> None:
        super().__init__()
        self._heap: list[tuple[float, int, Operation]] = []
        self._seq = count()
        self._virtual_time = 0.0
        self._flow_finish: Dict[int, float] = {}

    @property
    def virtual_time(self) -> float:
        return self._virtual_time

    def _push(self, op: Operation, now: float) -> None:
        flow = op.request.client_id
        start = max(self._virtual_time, self._flow_finish.get(flow, 0.0))
        finish = start + op.demand
        self._flow_finish[flow] = finish
        heapq.heappush(self._heap, (start, next(self._seq), op))

    def _pop(self, now: float) -> Operation:
        start, _, op = heapq.heappop(self._heap)
        # Virtual time advances to the start tag of the op entering service.
        self._virtual_time = max(self._virtual_time, start)
        return op


@register_policy
class SfqPolicy(SchedulingPolicy):
    """Start-time fair queueing across clients (fairness baseline)."""

    name = "sfq"

    def make_queue(self) -> ServerQueue:
        return SfqQueue()
