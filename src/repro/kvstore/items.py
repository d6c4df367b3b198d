"""Core data model: requests, operations, and response messages.

An end-user *request* (multiget) consists of one *operation* per key it
touches.  Operations are routed to the servers owning their keys and are
the unit the per-server schedulers order.  A request completes when its
last operation completes — the "max structure" that makes the scheduling
problem the concurrent open shop problem.

Requests and operations are dataclasses declared with ``slots=True``: a
load sweep creates millions of operations per run, and dropping the
per-instance ``__dict__`` cuts both allocation time and peak memory on
the simulator hot path (scheduler tags still live in the explicit
``tag`` dict).  The two messages a server sends back, :class:`Feedback`
and :class:`Response`, are named tuples: immutable values that the
simulated server builds without running a Python ``__init__``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, NamedTuple, Optional


class OpKind(enum.Enum):
    """Type of key-value access operation."""

    GET = "get"
    PUT = "put"


@dataclass(slots=True)
class Operation:
    """A single key-value access, scheduled on exactly one server.

    Attributes
    ----------
    request:
        The parent multiget request.
    key:
        The key accessed.
    kind:
        GET or PUT.
    value_size:
        Bytes moved by this operation (read or written).
    server_id:
        Owner server chosen by partitioning/replica selection.
    demand:
        Service demand in seconds on a reference-speed server; the actual
        service time also depends on the server's current speed factor.
    tag:
        Scheduler-specific priority payload stamped by the client-side
        policy (e.g. DAS's remaining-processing-time estimate).  Travels
        with the operation; servers may read but not assume global state.
    """

    request: "Request"
    key: str
    kind: OpKind
    value_size: int
    server_id: int
    demand: float = 0.0
    tag: Dict[str, Any] = field(default_factory=dict)
    index: int = 0

    # Timestamps filled during the operation's life.
    dispatch_time: float = float("nan")
    enqueue_time: float = float("nan")
    start_time: float = float("nan")
    finish_time: float = float("nan")
    response_time: float = float("nan")

    def __repr__(self) -> str:
        return (
            f"Operation(req={self.request.request_id}, key={self.key!r}, "
            f"server={self.server_id}, demand={self.demand:.6f})"
        )

    @property
    def request_id(self) -> int:
        return self.request.request_id

    @property
    def wait_time(self) -> float:
        """Queueing delay at the server (start - enqueue)."""
        return self.start_time - self.enqueue_time

    @property
    def service_time(self) -> float:
        """Actual time spent in service."""
        return self.finish_time - self.start_time


@dataclass(slots=True)
class Request:
    """An end-user multiget request.

    ``remaining`` counts unfinished operations; the request's completion
    time is the finish time of its last operation.

    Each operation points back at its request, so the client empties
    ``operations`` once it has recorded the completed request (its
    ``RequestRecord`` and sampled trace keep what later readers need).
    That breaks the request <-> operation cycle, so both die by reference
    count.  A late duplicate (hedge, retry) still reaches ``op.request``
    and is dropped because the request is no longer pending.
    """

    request_id: int
    client_id: int
    arrival_time: float
    operations: list[Operation] = field(default_factory=list)
    completion_time: float = float("nan")
    meta: Dict[str, Any] = field(default_factory=dict)
    #: Largest per-server demand, remembered the first time it is worked
    #: out (at tagging, once every operation is attached).
    bottleneck: Optional[float] = None
    #: Sum of service demands over all operations (seconds) and of their
    #: value sizes (bytes), added up by whoever attaches the operations
    #: (the simulated client, while it builds the request).
    total_demand: float = 0.0
    total_bytes: int = 0
    #: Summed demand per touched server, in first-touch order, when
    #: whoever attached the operations added it up (the simulated client
    #: does); :meth:`demands_by_server` then returns it as is.
    server_demands: Optional[Dict[int, float]] = None

    def __repr__(self) -> str:
        return (
            f"Request(id={self.request_id}, fanout={self.fanout}, "
            f"arrival={self.arrival_time:.6f})"
        )

    @property
    def fanout(self) -> int:
        """Number of operations (keys) in the request."""
        return len(self.operations)

    @property
    def remaining(self) -> int:
        """Unfinished operation count (based on recorded finish times)."""
        return sum(1 for op in self.operations if op.finish_time != op.finish_time)

    @property
    def done(self) -> bool:
        return self.completion_time == self.completion_time  # not NaN

    @property
    def rct(self) -> float:
        """Request completion time (completion - arrival)."""
        return self.completion_time - self.arrival_time

    def demands_by_server(self) -> Dict[int, float]:
        """Total service demand this request places on each server."""
        if self.server_demands is not None:
            return self.server_demands
        per_server: Dict[int, float] = {}
        for op in self.operations:
            per_server[op.server_id] = per_server.get(op.server_id, 0.0) + op.demand
        return per_server

    def bottleneck_demand(self) -> float:
        """The largest per-server demand — Rein's 'bottleneck' of a multiget."""
        if self.bottleneck is None:
            self.bottleneck = max(self.demands_by_server().values(), default=0.0)
        return self.bottleneck


class Feedback(NamedTuple):
    """Server state piggybacked on every response.

    ``queued_work`` is the server's estimate of the total remaining service
    time of its queue (including the in-service residual is not required —
    schedulers treat it as a congestion signal, not an exact wait).
    ``rate_sample`` is the effective service rate observed for the responded
    operation, in reference-demand-seconds per wall second (1.0 = nominal).
    """

    server_id: int
    queued_work: float
    queue_length: int
    rate_sample: float
    timestamp: float


class Response(NamedTuple):
    """Completion message for one operation, sent server -> client.

    The value moved is ``operation.value_size``: a simulated server holds
    no data and serves the size the operation names.
    """

    operation: Operation
    feedback: Optional[Feedback] = None
