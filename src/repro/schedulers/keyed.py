"""One heap queue keyed on a client-stamped tag.

``sbf`` keys it on the request's bottleneck demand, ``sjf-req`` on the
request's total demand.  An operation without the tag is keyed on its
own demand, so an untagged stream is per-operation SJF.
"""

from __future__ import annotations

import heapq
from itertools import count

from repro.kvstore.items import Operation
from repro.schedulers.base import ServerQueue


class KeyedHeapQueue(ServerQueue):
    """Smallest ``op.tag[tag]`` first; FIFO among equals."""

    def __init__(self, tag: str) -> None:
        super().__init__()
        self._tag = tag
        self._heap: list[tuple[float, int, Operation]] = []
        self._seq = count()

    def _push(self, op: Operation, now: float) -> None:
        key = op.tag.get(self._tag, op.demand)
        heapq.heappush(self._heap, (key, next(self._seq), op))

    def _pop(self, now: float) -> Operation:
        return heapq.heappop(self._heap)[2]
