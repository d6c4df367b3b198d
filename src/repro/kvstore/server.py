"""The simulated key-value server.

One server = one storage engine + one scheduler queue + one service loop.
The loop is non-preemptive and work-conserving: whenever operations are
queued it serves the one the scheduler picks, for a service time drawn
from the server's :class:`~repro.kvstore.service.ServiceModel` (which may
degrade over time).  Completions are shipped back to the issuing client
with optional piggybacked feedback.

The loop is a re-arming kernel entry, not a coroutine:
:meth:`Server._start_next` runs whenever the server might be able to
start work (a delivery, a completion, a resume, a recovery) and
schedules at most one call — the completion of what it started — which
calls it again.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.core.estimator import check_alpha
from repro.errors import KeyNotFoundError
from repro.kvstore.items import Feedback, OpKind, Operation, Response
from repro.kvstore.network import NetworkModel
from repro.kvstore.service import ServiceModel
from repro.kvstore.storage import StorageEngine
from repro.schedulers.base import ServerQueue
from repro.sim.core import NORMAL, Environment

if TYPE_CHECKING:  # pragma: no cover
    from repro.kvstore.client import Client


class Server:
    """A simulated KV server with a pluggable scheduling queue."""

    def __init__(
        self,
        env: Environment,
        server_id: int,
        queue: ServerQueue,
        service: ServiceModel,
        storage: StorageEngine,
        network: NetworkModel,
        piggyback_feedback: bool = True,
        rate_alpha: float = 0.2,
    ):
        self.env = env
        self.server_id = server_id
        self.queue = queue
        self.service = service
        self.storage = storage
        self.network = network
        self.piggyback_feedback = piggyback_feedback
        #: client_id -> Client, wired by the cluster after construction.
        self.clients: dict[int, "Client"] = {}

        #: True while the completion of the operation in service is
        #: pending, so at most one is ever armed.
        self._timer_armed = False
        self._current_finish: Optional[float] = None
        self._rate_alpha = check_alpha(rate_alpha, "rate_alpha")
        #: EWMA of observed service speed, seeded with the nominal speed.
        self._rate = service.base_speed

        #: Size-lane support (duck-typed on the queue, like the obs
        #: bridge): the lane layer is pure dispatch order — the service
        #: loop is unchanged — but the server keeps per-lane busy time
        #: so utilization can be split by lane in run stats.
        self.lanes = getattr(queue, "lanes", None)
        self.lane_busy_time: dict[str, float] = {
            lane: 0.0 for lane in (self.lanes or ())
        }

        #: Fault-plan lifecycle: a crash *loses* queued operations and
        #: refuses new ones until :meth:`recover`; a pause only parks
        #: them until :meth:`resume` (the op in service completes,
        #: nothing is dropped).
        self.crashed = False
        self.paused = False
        self.crashes = 0

        self.ops_served = 0
        self.ops_failed = 0
        self.ops_dropped = 0
        self.probes_answered = 0
        self.busy_time = 0.0

    # ------------------------------------------------------------------
    # Ingress
    # ------------------------------------------------------------------
    def handle_operation(self, op: Operation) -> None:
        """Network delivery point for a dispatched operation."""
        if self.crashed:
            # A dead process accepts nothing; the op vanishes and the
            # client's timeout (or hedge) has to notice.
            self.ops_dropped += 1
            return
        self.queue.push(op, self.env._now)
        if not self._timer_armed:  # busy servers (most deliveries) skip the call
            self._start_next()

    def handle_probe(self, client_id: int) -> None:
        """Network delivery point for a selection probe.

        Probes live on the control plane: answered immediately from the
        current queue state (no service time), dropped silently when the
        server is crashed — the prober's pool ages the entry out.
        """
        if self.crashed:
            return
        client = self.clients.get(client_id)
        if client is None:  # pragma: no cover - wiring error
            raise RuntimeError(
                f"server {self.server_id} has no route to client {client_id}"
            )
        self.probes_answered += 1
        self.network.send(
            ("server", self.server_id),
            ("client", client_id),
            self.make_feedback(),
            client.receive_probe_reply,
        )

    # ------------------------------------------------------------------
    # Fault-plan lifecycle: crash / recover, pause / resume
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Hard-kill the server: queued operations are dropped.

        This is the fault-plan ``Crash`` semantic — stronger than a
        ``Pause``, which merely parks the queue.  An operation in
        service when the crash lands also dies (detected by the service
        loop via the ``crashes`` epoch).
        """
        if self.crashed:
            return
        self.crashed = True
        self.crashes += 1
        now = self.env.now
        while len(self.queue):
            self.queue.pop(now)
            self.ops_dropped += 1

    def recover(self) -> None:
        """Bring a crashed server back, empty-queued, ready to serve."""
        if not self.crashed:
            return
        self.crashed = False
        self._start_next()

    def pause(self) -> None:
        """Start nothing until :meth:`resume` (the fault-plan ``Pause``).

        Queued and arriving operations wait; the one in service completes.
        """
        self.paused = True

    def resume(self) -> None:
        """End a pause and serve what queued up meanwhile."""
        self.paused = False
        self._start_next()

    # ------------------------------------------------------------------
    # Service loop
    # ------------------------------------------------------------------
    def _start_next(self) -> None:
        """Start serving the scheduler's pick.

        Safe to call at any time: does nothing while an operation is in
        service, while crashed or paused, or with an empty queue.
        """
        if self._timer_armed or self.crashed or self.paused:
            return
        queue = self.queue
        if len(queue) == 0:
            return
        env = self.env
        now = env._now
        op = queue.pop(now)
        op.start_time = now
        ok, size = self._execute(op, now)
        service_time = self.service.sample_service_time(size, now)
        self._current_finish = now + service_time
        self._timer_armed = True
        env._schedule(
            self._service_done,
            (op, self.crashes, ok, size, service_time),
            service_time,
            NORMAL,
        )

    def _service_done(self, served: tuple) -> None:
        op, epoch, ok, size, service_time = served
        self._timer_armed = False
        self._current_finish = None
        if self.crashes != epoch:
            # The server died mid-service; the op dies with it.
            self.ops_dropped += 1
        else:
            self._complete(op, ok, size, service_time)
        self._start_next()

    def _complete(self, op: Operation, ok: bool, size: int, service_time: float) -> None:
        """Account for a served operation and ship its response."""
        now = self.env._now
        op.finish_time = now
        self.busy_time += service_time
        if self.lanes is not None:
            lane = op.tag.get("lane")
            if lane in self.lane_busy_time:
                self.lane_busy_time[lane] += service_time
        # Learn our own effective rate from the completed operation.
        observed = self.service.rate_sample(op.demand, service_time)
        self._rate += self._rate_alpha * (observed - self._rate)
        self.queue.on_service_complete(op, now)
        if ok:
            self.ops_served += 1
        else:
            self.ops_failed += 1
        client = self.clients.get(op.request.client_id)
        if client is None:  # pragma: no cover - wiring error
            raise RuntimeError(
                f"server {self.server_id} has no route to client "
                f"{op.request.client_id}"
            )
        self.network.send(
            ("server", self.server_id),
            ("client", client.client_id),
            Response(
                op,
                ok,
                size,
                self.make_feedback() if self.piggyback_feedback else None,
                None if ok else "key not found",
            ),
            client.handle_response,
            size,
        )

    def _execute(self, op: Operation, now: float) -> tuple[bool, int]:
        """Run the operation against the storage engine.

        Returns (ok, bytes_moved); a miss still consumes overhead time but
        moves no value bytes.
        """
        if op.kind is OpKind.PUT:
            self.storage.put(op.key, op.value_size, now=now)
            return True, op.value_size
        try:
            record = self.storage.get(op.key, now=now)
        except KeyNotFoundError:
            return False, 0
        return True, record.size

    # ------------------------------------------------------------------
    # Feedback & introspection
    # ------------------------------------------------------------------
    @property
    def measured_rate(self) -> float:
        """EWMA of observed service speed (demand-seconds per second)."""
        return self._rate

    def in_service_residual(self, now: float) -> float:
        """Remaining service time of the operation on the CPU, if any."""
        if self._current_finish is None:
            return 0.0
        return max(0.0, self._current_finish - now)

    def make_feedback(self) -> Feedback:
        """Snapshot this server's congestion for clients.

        Queued demand is converted to wall time by the *measured* rate, so
        a degraded server correctly reports a longer backlog than its
        queue's raw demand suggests.
        """
        now = self.env._now
        rate = self._rate
        queue = self.queue
        queued_seconds = queue.queued_demand / max(rate, 1e-9) + self.in_service_residual(now)
        return Feedback(self.server_id, queued_seconds, len(queue), rate, now)

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` spent serving operations."""
        if elapsed <= 0:
            return 0.0
        return self.busy_time / elapsed

    def __repr__(self) -> str:
        return (
            f"Server(id={self.server_id}, queued={len(self.queue)}, "
            f"served={self.ops_served})"
        )


def start_periodic_broadcaster(
    env: Environment,
    server: Server,
    interval: float,
    deliver: Callable[[Feedback], None],
) -> None:
    """Broadcast ``server``'s feedback snapshot every ``interval`` from now on.

    ``deliver`` receives the snapshot and is responsible for fanning it out
    to clients (the cluster wires this through the network model).
    """

    def arm(_) -> None:
        env._schedule(broadcast, None, interval, NORMAL)

    def broadcast(_) -> None:
        # A dead server gossips nothing; clients keep their last (stale)
        # view until the failure detector marks it.
        if not server.crashed:
            deliver(server.make_feedback())
        arm(None)

    env._schedule(arm, None)
