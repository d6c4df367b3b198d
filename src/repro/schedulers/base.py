"""Scheduler interfaces: client tagger + per-server queue.

Information model
-----------------
The client knows: the request it is dispatching (all its keys, sizes, and
target servers) and its own *estimates* of server state (from piggybacked
feedback).  The server knows: the operations in its own queue, their tags,
and its own measured service rate.  Neither side has global state —
policies that respect this split are deployable; the interfaces make the
split explicit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.errors import SchedulerError
from repro.kvstore.items import Operation, Request

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.estimator import ServerEstimates


class ServerQueue:
    """Per-server queue discipline.

    Subclasses implement ``_push``/``_pop``; the base class maintains the
    length and total-queued-demand bookkeeping every policy needs for
    feedback.  ``pop`` must only be called when the queue is non-empty.
    """

    def __init__(self) -> None:
        #: Queued operations; ``len(queue)`` reads it.
        self._length = 0
        #: Total service demand (reference seconds) of queued operations.
        self.queued_demand = 0.0

    # -- bookkeeping ------------------------------------------------------
    def __len__(self) -> int:
        return self._length

    # -- public API -------------------------------------------------------
    def push(self, op: Operation, now: float) -> None:
        """Enqueue an operation arriving at ``now``."""
        op.enqueue_time = now
        self._push(op, now)
        self._length += 1
        self.queued_demand += op.demand

    def pop(self, now: float) -> Operation:
        """Dequeue the next operation to serve."""
        if self._length == 0:
            raise SchedulerError("pop() from an empty queue")
        op = self._pop(now)
        self._length -= 1
        self.queued_demand -= op.demand
        if self.queued_demand < 0 and self.queued_demand > -1e-12:
            self.queued_demand = 0.0  # absorb float drift
        return op

    # -- policy hooks -------------------------------------------------------
    def _push(self, op: Operation, now: float) -> None:
        raise NotImplementedError

    def _pop(self, now: float) -> Operation:
        raise NotImplementedError

    def on_service_complete(self, op: Operation, now: float) -> None:
        """Called after an operation finishes service (for adaptive state)."""


class ClientTagger:
    """Stamps scheduler metadata onto a request's operations at dispatch."""

    def tag_request(
        self, request: Request, now: float, estimates: Optional["ServerEstimates"]
    ) -> None:
        raise NotImplementedError


class NullTagger(ClientTagger):
    """Tagger for policies that need nothing from the client."""

    def tag_request(
        self, request: Request, now: float, estimates: Optional["ServerEstimates"]
    ) -> None:
        return None


class SchedulingPolicy:
    """Factory pairing a tagger with a queue implementation.

    Attributes
    ----------
    name:
        Registry name.
    needs_feedback:
        True when the policy's tagger uses server-state estimates, so the
        cluster knows to enable the feedback path.
    params:
        The constructor's keyword arguments; a policy without knobs takes
        none, so a stray parameter fails loudly.
    """

    name: str = "abstract"
    needs_feedback: bool = False
    params: Dict[str, Any] = {}

    def make_queue(self) -> ServerQueue:
        raise NotImplementedError

    def make_tagger(self) -> ClientTagger:
        return NullTagger()

    def describe(self) -> str:
        if not self.params:
            return self.name
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self.params.items()))
        return f"{self.name}({inner})"

    def __repr__(self) -> str:
        return f"<SchedulingPolicy {self.describe()}>"
