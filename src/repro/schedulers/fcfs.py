"""First-come-first-served — the default policy the paper improves on."""

from __future__ import annotations

from collections import deque

from repro.kvstore.items import Operation
from repro.schedulers.base import SchedulingPolicy, ServerQueue
from repro.schedulers.registry import register_policy


class FcfsQueue(ServerQueue):
    """Plain FIFO over operation arrival order at this server."""

    def __init__(self) -> None:
        super().__init__()
        self._fifo: deque[Operation] = deque()

    def _push(self, op: Operation, now: float) -> None:
        self._fifo.append(op)

    def _pop(self, now: float) -> Operation:
        return self._fifo.popleft()


@register_policy
class FcfsPolicy(SchedulingPolicy):
    """FCFS: serve operations in the order they reached the server."""

    name = "fcfs"

    def make_queue(self) -> ServerQueue:
        return FcfsQueue()
