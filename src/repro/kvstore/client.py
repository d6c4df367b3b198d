"""The simulated front-end client.

A client generates multiget requests from its workload factory, resolves
each key to a server through replica placement, lets the scheduling
policy's tagger stamp priorities (using client-local estimates only),
dispatches the operations over the network, and aggregates responses.
The request's completion time is recorded when its last response arrives —
the end-user view of latency.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional, Set

from repro.core.estimator import ServerEstimates
from repro.faults.resilience import (
    CircuitBreaker,
    FailureDetectorConfig,
    HedgePolicy,
    LatencyTracker,
)
from repro.kvstore.items import Feedback, OpKind, Operation, Request, Response
from repro.kvstore.network import NetworkModel
from repro.kvstore.replication import ReplicaPlacement
from repro.kvstore.service import ServiceModel
from repro.metrics.collector import MetricsCollector
from repro.obs import OBS_FAULT, OpSpan, RequestTrace, Tracer
from repro.schedulers.base import ClientTagger
from repro.selection import FEEDBACK_WIRE_BYTES, PROBE_WIRE_BYTES
from repro.sim.core import NORMAL, Environment
from repro.workload.requests import RequestFactory

if TYPE_CHECKING:  # pragma: no cover
    from repro.kvstore.server import Server


class Client:
    """One front-end issuing multiget requests into the cluster."""

    def __init__(
        self,
        env: Environment,
        client_id: int,
        factory: RequestFactory,
        placement: ReplicaPlacement,
        tagger: ClientTagger,
        estimates: Optional[ServerEstimates],
        network: NetworkModel,
        servers: Dict[int, "Server"],
        metrics: MetricsCollector,
        reference_service: ServiceModel,
        max_requests: Optional[int] = None,
        end_time: Optional[float] = None,
        request_id_base: int = 0,
        on_finished: Optional[Callable[["Client"], None]] = None,
        op_timeout: Optional[float] = None,
        max_retries: int = 0,
        tracer: Optional[Tracer] = None,
        hedge: Optional[HedgePolicy] = None,
        failure_detector: Optional[FailureDetectorConfig] = None,
        fault_state: Optional[Callable[[], tuple]] = None,
        closed_loop: bool = False,
        closed_concurrency: int = 1,
        probes_per_request: int = 0,
    ):
        if probes_per_request < 0:
            raise ValueError("probes_per_request must be >= 0")
        if op_timeout is not None and op_timeout <= 0:
            raise ValueError("op_timeout must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if failure_detector is not None and op_timeout is None:
            raise ValueError("failure_detector requires op_timeout")
        if closed_concurrency < 1:
            raise ValueError("closed_concurrency must be >= 1")
        self.env = env
        self.client_id = client_id
        self.factory = factory
        self.placement = placement
        self.tagger = tagger
        self.estimates = estimates
        self.network = network
        self.servers = servers
        self.metrics = metrics
        self.reference_service = reference_service
        self.max_requests = max_requests
        self.end_time = end_time
        self._next_request_id = request_id_base
        self._on_finished = on_finished

        self.op_timeout = op_timeout
        self.max_retries = max_retries
        self.closed_loop = closed_loop
        self.closed_concurrency = closed_concurrency
        self.tracer = tracer
        self.hedge = hedge
        self.failure_detector = failure_detector
        self.fault_state = fault_state
        # Hot-path gates: only adaptive selection policies pay for the
        # per-op dispatch/response hooks (primary reads skip it all).
        self._track_inflight = placement.wants_inflight
        self._track_selection_feedback = placement.wants_feedback
        # Dedicated probe round-trips (prequal at its true cost): fired
        # per dispatched request, rotating over the fleet.
        self.probes_per_request = probes_per_request
        self._want_probes = (
            probes_per_request > 0
            and placement.wants_feedback
            and placement.policy.wants_probes
        )
        self._probe_cursor = 0
        self._server_ids = tuple(sorted(servers))
        self.probes_sent = 0
        self.requests_sent = 0
        self.requests_completed = 0
        self.retries_sent = 0
        self.timeouts_observed = 0
        self.timers_cancelled = 0
        self.hedges_sent = 0
        self.hedges_won = 0
        self.breaker_opens = 0
        self.generation_done = False
        #: request_id -> indexes of operations still awaiting a response.
        self._pending: Dict[int, set] = {}
        #: Per-op timers exist only under a timeout or hedge policy; the
        #: four ``(request_id, index)``-keyed dicts below stay empty (and
        #: untouched) without one, and a request's sends leave together.
        self._per_op_timers = op_timeout is not None or hedge is not None
        #: (request_id, index) -> attempts made so far (1 = original send).
        self._attempts: Dict[tuple, int] = {}
        #: (request_id, index) -> token of the pending op-timeout timer;
        #: the response path pops it, which cancels the timer.
        self._op_timers: Dict[tuple, object] = {}
        #: (request_id, index) -> token of the pending hedge timer.
        self._hedge_timers: Dict[tuple, object] = {}
        #: (request_id, index) -> server ids already sent a hedge.
        self._hedged: Dict[tuple, Set[int]] = {}
        #: Sub-op latency window feeding the hedge threshold.
        self._latency = LatencyTracker() if hedge is not None else None
        #: server_id -> failure-detector breaker (created on first failure).
        self._breakers: Dict[int, CircuitBreaker] = {}
        # Generation starts from an event of its own, not here: the
        # cluster sets ``max_requests`` / ``end_time`` after construction.
        env._schedule(self._start_closed if closed_loop else self._arm_next_arrival, None)

    # ------------------------------------------------------------------
    # Request generation
    # ------------------------------------------------------------------
    def _arm_next_arrival(self, _=None) -> None:
        """Open loop: time the next arrival, or end generation."""
        now = self.env._now
        done = self.max_requests is not None and self.requests_sent >= self.max_requests
        if not done:
            gap = self.factory.next_interarrival(now)  # inf: trace exhausted
            done = gap == float("inf") or (
                self.end_time is not None and now + gap > self.end_time
            )
        if done:
            self._finish_generation()
        else:
            self.env._schedule(self._arrive, None, gap, NORMAL)

    def _arrive(self, _) -> None:
        self._dispatch(self._build_request())
        self._arm_next_arrival()

    def _start_closed(self, _) -> None:
        """Closed-loop generation: a fixed window of in-flight requests.

        The initial window is dispatched here; every full-request
        completion then issues the replacement (see ``handle_response``),
        so the offered rate self-throttles to the cluster's service rate
        and the arrival clock is never consulted.
        """
        for _ in range(self.closed_concurrency):
            if not self._closed_can_issue():
                break
            self._dispatch(self._build_request())
        if not self._closed_can_issue():
            self._finish_generation()

    def _finish_generation(self) -> None:
        self.generation_done = True
        if self._on_finished is not None:
            self._on_finished(self)

    def _closed_can_issue(self) -> bool:
        if self.max_requests is not None and self.requests_sent >= self.max_requests:
            return False
        if self.end_time is not None and self.env.now >= self.end_time:
            return False
        return True

    def _build_request(self) -> Request:
        descriptor = self.factory.make_request()
        now = self.env._now
        request = Request(
            request_id=self._next_request_id,
            client_id=self.client_id,
            arrival_time=now,
        )
        self._next_request_id += 1
        for i, (key, size, is_put) in enumerate(
            zip(descriptor.keys, descriptor.sizes, descriptor.is_put)
        ):
            if is_put:
                server_id = self.placement.write_set(key)[0]
                kind = OpKind.PUT
            else:
                server_id = self.placement.select_read_replica(key, now)
                kind = OpKind.GET
            op = Operation(
                request=request,
                key=key,
                kind=kind,
                value_size=size,
                server_id=server_id,
                demand=self.reference_service.demand(size),
                index=i,
            )
            request.operations.append(op)
        return request

    def _dispatch(self, request: Request) -> None:
        now = self.env._now
        self.tagger.tag_request(request, now, self.estimates)
        ops = request.operations
        self._pending[request.request_id] = set(range(len(ops)))
        self.requests_sent += 1
        if self._per_op_timers:
            # A timer is armed after each send: keep that interleaving.
            for op in ops:
                self._attempts[(request.request_id, op.index)] = 1
                self._send_op(op)
        else:
            servers = self.servers
            messages = []
            for op in ops:
                op.dispatch_time = now
                if self._track_inflight:
                    self.placement.policy.on_dispatch(op.server_id, now)
                messages.append(
                    (
                        ("server", op.server_id),
                        op,
                        servers[op.server_id].handle_operation,
                        len(op.key),
                    )
                )
            self.network.send_batch(("client", self.client_id), messages)
        if self._want_probes:
            self._send_probes()

    def _send_op(self, op: Operation, is_hedge: bool = False) -> None:
        now = self.env._now
        op.dispatch_time = now
        if self._track_inflight:
            self.placement.policy.on_dispatch(op.server_id, now)
        server = self.servers[op.server_id]
        self.network.send(
            ("client", self.client_id),
            ("server", op.server_id),
            op,
            server.handle_operation,
            size_bytes=len(op.key),
        )
        if is_hedge:
            return  # hedges ride on the primary's timeout/retry machinery
        if self.op_timeout is not None:
            self._arm_timeout(op)
        if (
            self.hedge is not None
            and op.kind is OpKind.GET
            and self._attempts[(op.request_id, op.index)] == 1
        ):
            self._arm_hedge(op)

    def _arm_timeout(self, op: Operation) -> None:
        key = (op.request_id, op.index)
        self._op_timers[key] = token = object()
        self.env._schedule(
            self._fire_op_timeout,
            (op, self._attempts[key], token),
            self.op_timeout,
            NORMAL,
        )

    def _fire_op_timeout(self, arg: tuple) -> None:
        op, attempt, token = arg
        key = (op.request_id, op.index)
        if self._op_timers.get(key) is not token:
            return  # cancelled by the response
        del self._op_timers[key]
        self._on_op_timeout(op, attempt)

    def _on_op_timeout(self, op: Operation, attempt: int) -> None:
        """Retry an operation whose response did not arrive in time.

        A stale timer (the response arrived, or a newer attempt is already
        out) is ignored.  The retry goes to the next replica in the key's
        preference list — skipping replicas whose circuit breaker is open
        when a failure detector is configured — so a single-server outage
        or crash is survivable when the key is replicated.
        """
        key = (op.request_id, op.index)
        outstanding = self._pending.get(op.request_id)
        if outstanding is None or op.index not in outstanding:
            return  # already answered
        if self._attempts.get(key) != attempt:
            return  # a newer attempt owns this slot
        self.timeouts_observed += 1
        if self.failure_detector is not None:
            self._record_failure(op.server_id)
        if attempt > self.max_retries:
            return  # retry budget exhausted; wait for the original
        self._attempts[key] = attempt + 1
        replicas = self.placement.replicas(op.key)
        target = replicas[attempt % len(replicas)]
        if self.failure_detector is not None:
            now = self.env.now
            for shift in range(len(replicas)):
                candidate = replicas[(attempt + shift) % len(replicas)]
                breaker = self._breakers.get(candidate)
                if breaker is None or breaker.allow(now):
                    target = candidate
                    break
        retry = Operation(
            request=op.request,
            key=op.key,
            kind=op.kind,
            value_size=op.value_size,
            server_id=target,
            demand=op.demand,
            tag=dict(op.tag),
            index=op.index,
        )
        self.retries_sent += 1
        self._send_op(retry)

    # ------------------------------------------------------------------
    # Selection probes (control plane)
    # ------------------------------------------------------------------
    def _send_probes(self) -> None:
        """Fire this request's probe round-trips, rotating over the fleet.

        The rotation is deterministic (no rng draw) and spreads coverage
        evenly, so every server's state reaches the probe pool within
        ``n_servers / probes_per_request`` requests.  Each leg of the
        round-trip is recorded as one kind=probe control message.
        """
        ids = self._server_ids
        for _ in range(self.probes_per_request):
            sid = ids[self._probe_cursor % len(ids)]
            self._probe_cursor += 1
            self.probes_sent += 1
            self.placement.policy.record_control_message(
                "probe", payload_bytes=PROBE_WIRE_BYTES
            )
            self.network.send(
                ("client", self.client_id),
                ("server", sid),
                self.client_id,
                self.servers[sid].handle_probe,
                size_bytes=PROBE_WIRE_BYTES,
            )

    def receive_probe_reply(self, feedback: Feedback) -> None:
        """Delivery point for a probe's feedback reply."""
        if self.estimates is not None:
            self.estimates.observe(feedback)
        if self._track_selection_feedback:
            self.placement.policy.record_control_message(
                "probe", payload_bytes=FEEDBACK_WIRE_BYTES
            )
            self.placement.policy.observe_feedback(feedback, self.env._now)

    # ------------------------------------------------------------------
    # Hedging
    # ------------------------------------------------------------------
    def _arm_hedge(self, op: Operation) -> None:
        threshold = self.hedge.threshold(self._latency)
        if threshold is None:
            return  # not enough latency signal yet
        if self.op_timeout is not None and threshold >= self.op_timeout:
            return  # the timeout/retry path would fire first anyway
        key = (op.request_id, op.index)
        self._hedge_timers[key] = token = object()
        self.env._schedule(self._fire_hedge, (op, token), threshold, NORMAL)

    def _fire_hedge(self, arg: tuple) -> None:
        op, token = arg
        key = (op.request_id, op.index)
        if self._hedge_timers.get(key) is not token:
            return  # cancelled by the response
        del self._hedge_timers[key]
        outstanding = self._pending.get(op.request_id)
        if outstanding is None or op.index not in outstanding:
            return  # already answered
        used = self._hedged.setdefault(key, set())
        if len(used) >= self.hedge.max_hedges:
            return
        target = self._pick_backup(op, used)
        if target is None:
            return  # no healthy second replica
        used.add(target)
        hedge_op = Operation(
            request=op.request,
            key=op.key,
            kind=op.kind,
            value_size=op.value_size,
            server_id=target,
            demand=op.demand,
            tag=dict(op.tag),
            index=op.index,
        )
        self.hedges_sent += 1
        self._send_op(hedge_op, is_hedge=True)
        if len(used) < self.hedge.max_hedges:
            self._arm_hedge(op)

    def _pick_backup(self, op: Operation, used: Set[int]) -> Optional[int]:
        """First replica that is not the primary, not already hedged to,
        and whose breaker (if any) admits traffic."""
        now = self.env.now
        for candidate in self.placement.replicas(op.key):
            if candidate == op.server_id or candidate in used:
                continue
            breaker = self._breakers.get(candidate)
            if breaker is not None and not breaker.allow(now):
                continue
            return candidate
        return None

    # ------------------------------------------------------------------
    # Failure detection
    # ------------------------------------------------------------------
    def _record_failure(self, server_id: int) -> None:
        breaker = self._breakers.get(server_id)
        if breaker is None:
            breaker = CircuitBreaker(
                failure_threshold=self.failure_detector.failure_threshold,
                reset_timeout=self.failure_detector.reset_timeout,
            )
            self._breakers[server_id] = breaker
        if breaker.record_failure(self.env.now):
            self.breaker_opens += 1
            self._mark_unhealthy(server_id)

    def _mark_unhealthy(self, server_id: int) -> None:
        """Feed a synthetic worst-case snapshot into estimates/selection.

        Mirrors the runtime client: an opened breaker makes the server
        look saturated and slow, so DAS tagging and adaptive replica
        selection route around it without a dedicated health channel.
        """
        fd = self.failure_detector
        now = self.env.now
        feedback = Feedback(
            server_id=server_id,
            queued_work=fd.unhealthy_queued_work,
            queue_length=fd.unhealthy_queue_length,
            rate_sample=fd.unhealthy_rate,
            timestamp=now,
        )
        if self.estimates is not None:
            self.estimates.observe(feedback)
        if self._track_selection_feedback:
            self.placement.policy.observe_feedback(feedback, now)

    # ------------------------------------------------------------------
    # Response handling
    # ------------------------------------------------------------------
    def handle_response(self, response: Response) -> None:
        """Network delivery point for one operation's completion."""
        now = self.env._now
        op = response.operation
        op.response_time = now
        if self._track_inflight:
            self.placement.policy.on_response(op.server_id, now, now - op.dispatch_time)
        if self._latency is not None:
            self._latency.record(now - op.dispatch_time)
        if self._breakers:
            breaker = self._breakers.get(op.server_id)
            if breaker is not None:
                breaker.record_success()
        feedback = response.feedback
        if feedback is not None:
            if self.estimates is not None:
                self.estimates.observe(feedback)
            if self._track_selection_feedback:
                # Piggybacked snapshots ride an existing data reply: zero
                # extra messages, but the payload bytes are real.
                self.placement.policy.record_control_message(
                    "feedback", messages=0, payload_bytes=FEEDBACK_WIRE_BYTES
                )
                self.placement.policy.observe_feedback(feedback, now)
        self.metrics.ops_completed += 1

        request = op.request
        index = op.index
        outstanding = self._pending.get(request.request_id)
        if outstanding is None or index not in outstanding:
            return  # duplicate (late original after a successful retry)
        if self._per_op_timers:
            self._settle_timers((request.request_id, index), op.server_id)
        outstanding.discard(index)
        # Record the finish on the canonical operation so request-level
        # accounting (remaining, residual) sees retried ops as done.
        canonical = request.operations[index]
        if canonical.finish_time != canonical.finish_time:  # still NaN
            canonical.finish_time = op.finish_time
            canonical.response_time = now
        if outstanding:
            return
        del self._pending[request.request_id]
        request.completion_time = now
        self.requests_completed += 1
        self.metrics.record_request(request)
        if self.closed_loop and not self.generation_done:
            # The freed window slot issues the next request immediately.
            if self._closed_can_issue():
                self._dispatch(self._build_request())
            if not self._closed_can_issue():
                self.generation_done = True
        if self.tracer is not None and self.tracer.should_sample():
            meta = {
                "client": self.client_id,
                "keys": len(request.operations),
            }
            if self.fault_state is not None:
                active = self.fault_state()
                if active:
                    meta[OBS_FAULT] = ",".join(active)
            self.tracer.record(
                RequestTrace(
                    request_id=request.request_id,
                    tag_time=request.arrival_time,
                    reply_time=now,
                    ops=[OpSpan.from_op(op) for op in request.operations],
                    meta=meta,
                )
            )
        # Recorded: drop the request -> operations link so the request and
        # its operations (which point back at it) die by reference count.
        # A late duplicate still reaches ``op.request`` and returns early.
        request.operations = []
        if self._on_finished is not None:
            self._on_finished(self)

    def _settle_timers(self, key: tuple, server_id: int) -> None:
        """An op was answered by ``server_id``: cancel what still waits on it."""
        # A pending timer's entry stays on the heap and fires as a no-op:
        # its handler no longer finds its token.
        if self._op_timers.pop(key, None) is not None:
            self.timers_cancelled += 1
        if self._hedge_timers.pop(key, None) is not None:
            self.timers_cancelled += 1
        hedged_to = self._hedged.pop(key, None)
        if hedged_to and server_id in hedged_to:
            self.hedges_won += 1
        self._attempts.pop(key, None)

    def receive_feedback(self, feedback: Feedback) -> None:
        """Delivery point for broadcast feedback (periodic-mode snapshots
        and Dodoor-style load reports alike)."""
        if self.estimates is not None:
            self.estimates.observe(feedback)
        if self._track_selection_feedback:
            self.placement.policy.record_control_message(
                "report", payload_bytes=FEEDBACK_WIRE_BYTES
            )
            self.placement.policy.observe_feedback(feedback, self.env._now)

    # ------------------------------------------------------------------
    @property
    def outstanding(self) -> int:
        """Requests dispatched but not yet fully answered."""
        return len(self._pending)

    @property
    def drained(self) -> bool:
        """True when generation ended and every request completed."""
        return self.generation_done and not self._pending

    def __repr__(self) -> str:
        return (
            f"Client(id={self.client_id}, sent={self.requests_sent}, "
            f"done={self.requests_completed})"
        )
