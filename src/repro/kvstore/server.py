"""The simulated key-value server.

One server = one scheduler queue + one service loop.  The loop is
non-preemptive and work-conserving: whenever operations are queued it
serves the one the scheduler picks, for ``op.demand / speed × noise``
seconds, with the speed and noise of the server's
:class:`~repro.kvstore.service.ServiceModel` (the speed may degrade over
time).  The server holds no data: the size an operation names is the
size it serves, so the rate the server learns is measured on the same
demand the client tagged.  Completions are shipped back to the issuing
client with optional piggybacked feedback.

The loop is a re-arming kernel entry, not a coroutine:
:meth:`Server._start_next` runs whenever the server might be able to
start work (a delivery, a completion, a resume, a recovery) and
schedules at most one call — the completion of what it started — which
calls it again.  That completion, :meth:`Server._service_done`, is the
whole per-operation epilogue in one body: service accounting, the rate
sample, the feedback snapshot and the response send.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.core.estimator import check_alpha
from repro.kvstore.items import Feedback, Operation, Response
from repro.kvstore.network import Handler, NetworkModel
from repro.kvstore.service import ServiceModel
from repro.schedulers.base import ServerQueue
from repro.sim.core import NORMAL, Environment

if TYPE_CHECKING:  # pragma: no cover
    from repro.kvstore.client import Client

#: Builds a named tuple from a tuple of its values without running the
#: class's Python-level ``__new__`` (what ``namedtuple._make`` does): the
#: per-operation :class:`Feedback` and :class:`Response` cost no call.
_make = tuple.__new__


class Server:
    """A simulated KV server with a pluggable scheduling queue.

    An operation is served for ``op.demand / speed × noise`` seconds:
    ``op.demand`` is the reference demand of its size, the speed is the
    service model's base speed (its ``speed_factor(now)`` on a server
    with speed steps), and the noise is the next draw of the model's
    lognormal lane.  The cluster wires each client with :meth:`connect`
    before the run.
    """

    def __init__(
        self,
        env: Environment,
        server_id: int,
        queue: ServerQueue,
        service: ServiceModel,
        network: NetworkModel,
        piggyback_feedback: bool = True,
        rate_alpha: float = 0.2,
    ):
        self.env = env
        self.server_id = server_id
        self.queue = queue
        self.service = service
        self.network = network
        self.piggyback_feedback = piggyback_feedback
        #: client_id -> Client, wired by :meth:`connect`.
        self.clients: Dict[int, "Client"] = {}
        #: client_id -> (network address, response handler), resolved
        #: once by :meth:`connect` so a completion looks up one entry.
        self._routes: Dict[int, Tuple[tuple, Handler]] = {}
        self.address = ("server", server_id)
        #: The speed every op is served at, or None when speed steps make
        #: it depend on the time (then the service model bisects).
        self._steady_speed = None if service.varies else service.base_speed
        #: Only a queue that overrides the completion hook is told.
        self._notify_queue = (
            type(queue).on_service_complete is not ServerQueue.on_service_complete
        )

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
        self.ops_dropped = 0
        self.probes_answered = 0
        self.busy_time = 0.0

    def connect(self, client: "Client") -> None:
        """Route ``client``'s responses (and probe replies) back to it."""
        self.clients[client.client_id] = client
        self._routes[client.client_id] = (
            ("client", client.client_id),
            client.handle_response,
        )

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
            self.address,
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
        while self.queue._length:
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
        if queue._length == 0:
            return
        env = self.env
        now = env._now
        op = queue.pop(now)
        op.start_time = now
        speed = self._steady_speed
        if speed is None:
            speed = self.service.speed_factor(now)
        service_time = op.demand / speed
        noise = self.service.noise
        if noise is not None:
            service_time *= next(noise)
        self._current_finish = now + service_time
        self._timer_armed = True
        env._schedule(
            self._service_done,
            (op, self.crashes, service_time),
            service_time,
            NORMAL,
        )

    def _service_done(self, served: tuple) -> None:
        """Account for a served operation, ship its response, start the next."""
        op, epoch, service_time = served
        self._timer_armed = False
        self._current_finish = None
        if self.crashes != epoch:
            # The server died mid-service; the op dies with it.
            self.ops_dropped += 1
            self._start_next()
            return
        now = self.env._now
        op.finish_time = now
        self.busy_time += service_time
        if self.lanes is not None:
            lane = op.tag.get("lane")
            if lane in self.lane_busy_time:
                self.lane_busy_time[lane] += service_time
        # Learn our own effective rate: demand seconds per wall second.
        observed = op.demand / service_time if service_time > 0 else self.service.base_speed
        rate = self._rate = self._rate + self._rate_alpha * (observed - self._rate)
        queue = self.queue
        if self._notify_queue:
            queue.on_service_complete(op, now)
        self.ops_served += 1
        dst, handler = self._routes[op.request.client_id]
        # make_feedback() with nothing in service (it just finished).
        feedback = (
            _make(
                Feedback,
                (
                    self.server_id,
                    queue.queued_demand / (rate if rate > 1e-9 else 1e-9),
                    queue._length,
                    rate,
                    now,
                ),
            )
            if self.piggyback_feedback
            else None
        )
        self.network.send(
            self.address, dst, _make(Response, (op, feedback)), handler, op.value_size
        )
        if queue._length:  # else _start_next would find nothing to start
            self._start_next()

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
        return Feedback(self.server_id, queued_seconds, queue._length, rate, now)

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

