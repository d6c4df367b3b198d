"""Multiget client for the asyncio runtime.

The client partitions keys over the servers with the same consistent-hash
ring the simulator uses, stamps scheduler tags computed from client-local
estimates (fed by feedback piggybacked on every reply), and gathers the
fanned-out sub-requests — a faithful runtime twin of the simulated
front-end.

Fault tolerance is opt-in through :class:`~repro.runtime.resilience`
policies: a :class:`RetryPolicy` arms per-attempt timeouts with
exponential backoff, a :class:`HedgePolicy` duplicates slow idempotent
reads onto a secondary connection, and a per-server circuit breaker fails
fast on repeatedly dead servers while feeding the unhealthiness into
:class:`ServerEstimates` so DAS tags route around them.  Dead connections
are replaced automatically on the next use; ``multiget(..., partial=True)``
degrades gracefully, returning what it could fetch plus a
:class:`MultigetReport`.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.das import rpt_of_slices
from repro.core.estimator import ServerEstimates
from repro.errors import ProtocolError
from repro.faults.resilience import CircuitBreaker, HedgePolicy, LatencyTracker
from repro.kvstore.items import Feedback
from repro.kvstore.partitioning import ConsistentHashRing
from repro.obs import (
    MetricsRegistry,
    OpSpan,
    RequestTrace,
    TRACE_REQUESTED,
    Tracer,
)
from repro.runtime.protocol import FrameProtocol, Message, write_message
from repro.runtime.resilience import (
    CircuitOpenError,
    MultigetReport,
    OperationTimeoutError,
    RetryPolicy,
    ServerUnavailableError,
)
from repro.selection import (
    FEEDBACK_WIRE_BYTES,
    PROBE_WIRE_BYTES,
    create_selection_policy,
    selection_policy_needs,
)

#: Assumed value size for keys never seen before (bytes).
DEFAULT_SIZE_GUESS = 1024

_new_tuple = tuple.__new__

#: Synthetic feedback pushed when a breaker opens: the server looks like a
#: minute of queued work at a crawl, so DAS tags steer giants elsewhere.
UNHEALTHY_QUEUED_WORK = 60.0
UNHEALTHY_RATE_SAMPLE = 1e-3


class _Connection(FrameProtocol):
    """One server connection plus its in-flight correlation table.

    ``pending`` maps a request id to whatever waits for its reply: an
    ``asyncio.Future`` or a :class:`_Slot` (same ``done`` /
    ``set_result`` / ``set_exception``).  Nothing here is awaited: frames
    are written synchronously and replies are matched in
    ``data_received``.  The write side is not flow-controlled — a caller
    has at most its own outstanding requests buffered.
    """

    def __init__(self, client: "RuntimeClient", server_id: int):
        super().__init__()
        self.client = client
        self.server_id = server_id
        self.pending: Dict[int, Any] = {}
        self.closed = False

    def message_received(self, message: Message) -> None:
        self.client._absorb_feedback(self.server_id, message)
        waiter = self.pending.pop(message.id, None)
        if waiter is None:
            return
        # Whatever settles a slot takes it out of ``pending`` first, so a
        # slot found here is unsettled; a future may have been cancelled.
        if waiter.__class__ is _Slot or not waiter.done():
            waiter.set_result(message)

    def protocol_error(self, exc: ProtocolError) -> None:
        self.client._fail_connection(self, exc)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.client._fail_connection(self, exc or "server closed connection")


class _Scatter:
    """The sub-requests of one unprotected fan-out, awaited as one future.

    ``partial`` waits for every slot whatever happens to the others;
    otherwise the first failure wakes the caller at once.
    """

    __slots__ = ("future", "remaining", "partial")

    def __init__(self, future: asyncio.Future, count: int, partial: bool):
        self.future = future
        self.remaining = count
        self.partial = partial


class _Slot:
    """Future-shaped correlation entry for one sub-request of a :class:`_Scatter`."""

    __slots__ = ("client", "scatter", "server_id", "sent_at", "outcome")

    def __init__(self, client: "RuntimeClient", scatter: _Scatter, server_id: int):
        self.client = client
        self.scatter = scatter
        self.server_id = server_id
        self.sent_at = time.monotonic()
        #: The reply, or the exception that ended the sub-request.
        self.outcome: Any = None
        if client._track_inflight:
            client.selection_policy.on_dispatch(server_id, self.sent_at)

    def done(self) -> bool:
        return self.outcome is not None

    def set_result(self, reply: Message) -> None:
        # The latency is observed once, into the histogram only: the
        # client's LatencyTracker feeds hedging, which needs a retry
        # policy, and then no sub-request has a slot.
        client = self.client
        now = time.monotonic()
        latency = now - self.sent_at
        client._attempt_latency.observe(latency)
        self.outcome = reply
        if client._track_inflight:
            client.selection_policy.on_response(self.server_id, now, latency)
        scatter = self.scatter
        scatter.remaining -= 1
        if scatter.remaining == 0 and not scatter.future.done():
            scatter.future.set_result(None)

    def set_exception(self, exc: BaseException) -> None:
        scatter = self.scatter
        if not scatter.partial and not scatter.future.done():
            scatter.future.set_exception(exc)
        self.outcome = exc
        client = self.client
        if client._track_inflight:
            now = time.monotonic()
            client.selection_policy.on_response(
                self.server_id, now, now - self.sent_at
            )
        scatter.remaining -= 1
        if scatter.remaining == 0 and not scatter.future.done():
            scatter.future.set_result(None)


class RuntimeClient:
    """Client issuing gets/puts/multigets against a set of KV servers.

    Parameters
    ----------
    endpoints:
        ``(host, port)`` per server; index order defines server ids.
    retry_policy:
        When set, every sub-request gets per-attempt timeouts, bounded
        retries with backoff, and a per-server circuit breaker.  When
        None (default) the client is "unprotected": it waits forever,
        exactly as the pre-fault-tolerance client did.
    hedge_policy:
        When set (requires ``retry_policy``), slow idempotent reads are
        duplicated onto a secondary connection; first reply wins.
    breaker_failure_threshold / breaker_reset_timeout:
        Circuit-breaker tuning (only used with ``retry_policy``).
    seed:
        Seed for backoff jitter, making retry timing reproducible.
    registry:
        Metrics registry for the client's counters/histograms (a shared
        cluster registry, or a private one by default).
    tracer:
        When set and enabled, sampled multigets are traced end-to-end:
        the client stamps ``trace`` into the tags, servers return per-op
        spans, and the assembled :class:`RequestTrace` lands in the
        tracer (tag -> enqueue -> service -> reply).
    replication_factor / selection / selection_params:
        Replicated reads: keys live on the first ``replication_factor``
        servers of their preference list; GETs are routed by the named
        :mod:`repro.selection` policy (``"primary"`` preserves the
        unreplicated behaviour) and PUTs fan out to every replica.
    probes_per_request / probe_timeout:
        For probe-based policies (``wants_probes``, e.g. ``prequal``):
        after each multiget dispatch up to ``probes_per_request``
        control-plane ``probe`` messages are fired at randomly chosen
        replicas of the touched keys; replies refresh the policy's pool
        through the same feedback funnel as data replies.
    """

    def __init__(
        self,
        endpoints: Sequence[Tuple[str, int]],
        byte_rate_hint: float = 100e6,
        per_op_overhead_hint: float = 50e-6,
        estimator: Optional[ServerEstimates] = None,
        retry_policy: Optional[RetryPolicy] = None,
        hedge_policy: Optional[HedgePolicy] = None,
        breaker_failure_threshold: int = 5,
        breaker_reset_timeout: float = 0.5,
        seed: int = 0,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        replication_factor: int = 1,
        selection: str = "primary",
        selection_params: Optional[Dict] = None,
        probes_per_request: int = 2,
        probe_timeout: float = 0.25,
    ):
        if not endpoints:
            raise ValueError("need at least one endpoint")
        if hedge_policy is not None and retry_policy is None:
            raise ValueError("hedge_policy requires retry_policy")
        if not 1 <= replication_factor <= len(endpoints):
            raise ValueError(
                f"replication_factor {replication_factor} out of range for "
                f"{len(endpoints)} endpoints"
            )
        if probes_per_request < 0:
            raise ValueError("probes_per_request must be >= 0")
        if probe_timeout <= 0:
            raise ValueError("probe_timeout must be positive")
        self.endpoints = list(endpoints)
        self.ring = ConsistentHashRing(range(len(endpoints)))
        self.estimates = estimator if estimator is not None else ServerEstimates()
        self.replication_factor = replication_factor
        needs = selection_policy_needs(selection)
        self.selection_policy = create_selection_policy(
            selection,
            rng=np.random.default_rng(seed + 1) if needs.rng else None,
            estimates=self.estimates if needs.estimates else None,
            **(selection_params or {}),
        )
        #: primary at rf=1 is the pre-replication fast path: no tracking.
        self._primary_reads = (
            self.selection_policy.name == "primary" or replication_factor == 1
        )
        track = not self._primary_reads
        self._track_inflight = track and self.selection_policy.wants_inflight
        self._track_feedback = track and self.selection_policy.wants_feedback
        self._want_probes = (
            track and self.selection_policy.wants_probes and probes_per_request > 0
        )
        self.probes_per_request = probes_per_request
        self.probe_timeout = probe_timeout
        self._probe_rng = np.random.default_rng(seed + 2)
        self._probe_tasks: Set[asyncio.Task] = set()
        self.byte_rate_hint = byte_rate_hint
        self.per_op_overhead_hint = per_op_overhead_hint
        self.retry_policy = retry_policy
        self.hedge_policy = hedge_policy
        self._rng = np.random.default_rng(seed)
        #: key -> the demand guess ``per_op_overhead_hint + size /
        #: byte_rate_hint`` of its last seen size; an unseen key's guess
        #: is ``_default_demand`` (the DEFAULT_SIZE_GUESS one).
        self._demand_guesses: Dict[str, float] = {}
        self._default_demand = per_op_overhead_hint + DEFAULT_SIZE_GUESS / byte_rate_hint
        #: key -> primary owner, for reads that need no replica selection.
        #: The ring's membership is fixed for the client's life; a miss
        #: walks the ring without filling its own per-key cache too.
        self._owners: Dict[str, int] = {}
        self._connections: Dict[int, _Connection] = {}
        self._hedge_connections: Dict[int, _Connection] = {}
        self._connect_locks: Dict[Tuple[int, bool], asyncio.Lock] = {}
        self._ever_connected: set = set()
        self._breakers: Dict[int, CircuitBreaker] = {}
        self._breaker_failure_threshold = breaker_failure_threshold
        self._breaker_reset_timeout = breaker_reset_timeout
        self._latency = LatencyTracker()
        self._ids = itertools.count(1)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer
        self._trace_ids = itertools.count(1)
        #: name -> registry Counter; bump with ``self.counters[name].inc()``.
        self.counters = {
            name: self.registry.counter(f"client_{name}_total", help)
            for name, help in (
                ("retries", "Retry attempts sent"),
                ("timeouts", "Attempts that timed out"),
                ("connection_errors", "Attempts that died on the wire"),
                ("reconnects", "Connections re-established"),
                ("hedges_sent", "Hedge duplicates issued"),
                ("hedges_won", "Hedges that beat the primary"),
                ("hedges_lost", "Hedges the primary beat"),
                ("breaker_opens", "Circuit breakers tripped open"),
                ("breaker_rejections", "Calls rejected by an open breaker"),
                ("partial_multigets", "Multigets that returned partial data"),
                ("probes_sent", "Control-plane load probes issued"),
                ("probes_ok", "Probes answered in time"),
                ("probes_failed", "Probes that timed out or died"),
                ("load_reports", "Unsolicited load-report broadcasts absorbed"),
            )
        }
        if not self._primary_reads:
            self.registry.gauge(
                "client_selection_decisions",
                "Read-replica selections made by the client's policy",
                fn=lambda: float(self.selection_policy.decisions),
                policy=self.selection_policy.name,
            )
        self._attempt_latency = self.registry.histogram(
            "client_attempt_latency_seconds", "Per-attempt round-trip latency"
        )
        self.registry.gauge(
            "client_breakers_open",
            "Breakers currently open",
            fn=lambda: sum(
                1 for b in self._breakers.values() if b.state == CircuitBreaker.OPEN
            ),
        )

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    async def connect(self) -> None:
        for server_id in range(len(self.endpoints)):
            await self._open_connection(server_id, hedge=False)

    async def _open_connection(self, server_id: int, hedge: bool) -> _Connection:
        host, port = self.endpoints[server_id]
        _, conn = await asyncio.get_running_loop().create_connection(
            lambda: _Connection(self, server_id), host, port
        )
        pool = self._hedge_connections if hedge else self._connections
        pool[server_id] = conn
        if (server_id, hedge) in self._ever_connected:
            self.counters["reconnects"].inc()
        self._ever_connected.add((server_id, hedge))
        return conn

    async def _ensure_connection(self, server_id: int, hedge: bool = False) -> _Connection:
        """Live connection to ``server_id``, replacing a dead one if needed."""
        pool = self._hedge_connections if hedge else self._connections
        conn = pool.get(server_id)
        if conn is not None and not conn.closed:
            return conn
        lock = self._connect_locks.setdefault((server_id, hedge), asyncio.Lock())
        async with lock:
            conn = pool.get(server_id)  # someone may have won the race
            if conn is not None and not conn.closed:
                return conn
            return await self._open_connection(server_id, hedge)

    def _fail_connection(self, conn: _Connection, reason: object) -> None:
        """Mark ``conn`` dead and fail whatever waits for a reply on it."""
        if conn.closed:
            return
        conn.closed = True
        pending, conn.pending = conn.pending, {}
        for waiter in pending.values():
            if not waiter.done():
                waiter.set_exception(
                    ConnectionError(
                        f"connection to server {conn.server_id} lost: {reason}"
                    )
                )
        conn.transport.close()

    async def close(self) -> None:
        for task in list(self._probe_tasks):
            task.cancel()
        if self._probe_tasks:
            await asyncio.gather(*self._probe_tasks, return_exceptions=True)
            self._probe_tasks.clear()
        for conn in list(self._connections.values()) + list(
            self._hedge_connections.values()
        ):
            self._fail_connection(conn, "client closed")
        self._connections.clear()
        self._hedge_connections.clear()
        # One turn of the loop, in which the transports release their sockets.
        await asyncio.sleep(0)

    def _absorb_feedback(self, server_id: int, message: Message) -> None:
        fields = message.fields
        feedback = fields.get("feedback")
        if not feedback:
            return
        report = message.type == "load_report"
        if report:
            self.counters["load_reports"].inc()
        # Probe replies and load reports additionally carry in_flight
        # (queued + in-service), a strictly better requests-in-flight
        # signal than queue_length.  The codec always fills all three
        # feedback members.
        in_flight = fields.get("in_flight")
        now = time.monotonic()
        # Feedback(...) without its generated __new__.
        fb = _new_tuple(
            Feedback,
            (
                server_id,
                float(feedback["queued_work"]),
                int(feedback["queue_length"] if in_flight is None else in_flight),
                float(feedback["rate_sample"]),
                now,
            ),
        )
        self.estimates.observe(fb)
        if self._track_feedback:
            # The one funnel into the policy: piggybacked replies, probe
            # replies, and load-report broadcasts all land here via the
            # connection's frame handler.  Control-plane accounting tags the kind:
            # a broadcast report is a dedicated message, a probe reply is
            # the return leg of a round-trip, and piggybacked feedback
            # rides an existing data reply (bytes only, zero messages).
            policy = self.selection_policy
            if report or in_flight is not None:
                policy.record_control_message(
                    "report" if report else "probe", payload_bytes=FEEDBACK_WIRE_BYTES
                )
                policy.observe_feedback(fb, now)
            else:
                # The slot or the tracked call reports the response itself
                # (failed ones too), so no latency here.
                policy.on_reply(server_id, now, None, fb)

    # ------------------------------------------------------------------
    # Resilient call machinery
    # ------------------------------------------------------------------
    def _breaker(self, server_id: int) -> CircuitBreaker:
        breaker = self._breakers.get(server_id)
        if breaker is None:
            breaker = CircuitBreaker(
                failure_threshold=self._breaker_failure_threshold,
                reset_timeout=self._breaker_reset_timeout,
            )
            self._breakers[server_id] = breaker
        return breaker

    def _mark_unhealthy(self, server_id: int) -> None:
        """Feed breaker-open into the estimates so DAS routes around it."""
        self.counters["breaker_opens"].inc()
        self.estimates.observe(
            Feedback(
                server_id=server_id,
                queued_work=UNHEALTHY_QUEUED_WORK,
                queue_length=10**6,
                rate_sample=UNHEALTHY_RATE_SAMPLE,
                timestamp=time.monotonic(),
            )
        )

    def _send(self, conn: _Connection, mtype: str, fields: Dict, waiter: Any) -> int:
        """Register ``waiter`` for the reply and write the request frame.

        The one way a request leaves this client.  Synchronous: the
        transport buffers what the socket does not take at once.  Returns
        the request id ``waiter`` is registered under.
        """
        message = Message(mtype, next(self._ids), fields)
        conn.pending[message.id] = waiter
        try:
            write_message(conn.transport, message)
        except Exception:
            # Nothing was sent, so no reply can arrive: drop the
            # correlation entry instead of leaking it.
            del conn.pending[message.id]
            raise
        return message.id

    def _record_latency(self, elapsed: float) -> None:
        self._latency.record(elapsed)
        self._attempt_latency.observe(elapsed)

    async def _attempt(
        self,
        server_id: int,
        mtype: str,
        fields: Dict,
        timeout: Optional[float],
        hedge: bool = False,
    ) -> Message:
        """One send/await round-trip over one connection."""
        conn = await self._ensure_connection(server_id, hedge=hedge)
        reply_future = asyncio.get_running_loop().create_future()
        request_id = self._send(conn, mtype, fields, reply_future)
        sent_at = time.monotonic()
        try:
            if timeout is None:
                reply = await reply_future
            else:
                reply = await asyncio.wait_for(reply_future, timeout)
        finally:
            conn.pending.pop(request_id, None)
        self._record_latency(time.monotonic() - sent_at)
        return reply

    async def _attempt_maybe_hedged(
        self, server_id: int, mtype: str, fields: Dict, timeout: Optional[float]
    ) -> Message:
        """One attempt, duplicated onto a hedge connection if it runs slow."""
        policy = self.hedge_policy
        threshold = policy.threshold(self._latency) if policy is not None else None
        primary = asyncio.create_task(
            self._attempt(server_id, mtype, fields, timeout)
        )
        if threshold is None or (timeout is not None and threshold >= timeout):
            return await primary
        done, _ = await asyncio.wait({primary}, timeout=threshold)
        if primary in done:
            return primary.result()
        self.counters["hedges_sent"].inc()
        hedge = asyncio.create_task(
            self._attempt(server_id, mtype, fields, timeout, hedge=True)
        )
        tasks = {primary, hedge}
        last_exc: Optional[BaseException] = None
        while tasks:
            done, tasks = await asyncio.wait(
                tasks, return_when=asyncio.FIRST_COMPLETED
            )
            winner = next((t for t in done if t.exception() is None), None)
            if winner is not None:
                for loser in tasks:
                    loser.cancel()
                await asyncio.gather(*tasks, return_exceptions=True)
                self.counters[
                    "hedges_won" if winner is hedge else "hedges_lost"
                ].inc()
                return winner.result()
            last_exc = next(iter(done)).exception()
        assert last_exc is not None
        raise last_exc

    async def _call(
        self, server_id: int, mtype: str, fields: Dict, idempotent: bool = False
    ) -> Message:
        """Send one request with whatever protection is configured.

        Without a retry policy this awaits the reply indefinitely (legacy
        behaviour).  With one, each attempt is bounded by ``op_timeout``,
        failures back off exponentially with jitter, the whole operation
        respects ``total_deadline``, and a per-server circuit breaker
        converts a dead server into fast :class:`CircuitOpenError`
        rejections.  Hedging applies to idempotent reads only.
        """
        policy = self.retry_policy
        hedged = idempotent and self.hedge_policy is not None
        if policy is None:
            return await self._attempt(server_id, mtype, fields, None)
        breaker = self._breaker(server_id)
        started = time.monotonic()
        last_exc: Optional[BaseException] = None
        for attempt in range(1, policy.max_attempts + 1):
            if not breaker.allow():
                self.counters["breaker_rejections"].inc()
                raise CircuitOpenError(server_id)
            if attempt > 1:
                self.counters["retries"].inc()
                pause = policy.backoff(attempt, self._rng)
                if pause > 0:
                    await asyncio.sleep(pause)
            timeout = policy.op_timeout
            if policy.total_deadline is not None:
                remaining = policy.total_deadline - (time.monotonic() - started)
                if remaining <= 0:
                    raise OperationTimeoutError(
                        server_id, f"deadline budget spent after {attempt - 1} attempts"
                    )
                timeout = min(timeout, remaining)
            try:
                if hedged:
                    reply = await self._attempt_maybe_hedged(
                        server_id, mtype, fields, timeout
                    )
                else:
                    reply = await self._attempt(server_id, mtype, fields, timeout)
            except asyncio.TimeoutError as exc:
                self.counters["timeouts"].inc()
                last_exc = exc
            except (ConnectionError, OSError) as exc:
                self.counters["connection_errors"].inc()
                last_exc = exc
            else:
                breaker.record_success()
                return reply
            if breaker.record_failure():
                self._mark_unhealthy(server_id)
        if isinstance(last_exc, asyncio.TimeoutError):
            raise OperationTimeoutError(
                server_id, f"all {policy.max_attempts} attempts timed out"
            ) from last_exc
        raise ServerUnavailableError(server_id, str(last_exc)) from last_exc

    # ------------------------------------------------------------------
    # Tagging (the distributed half of DAS)
    # ------------------------------------------------------------------
    def _tags_for(self, by_server: Dict[int, List[str]]) -> Dict[str, float]:
        """Compute DAS/SBF/SJF tags for a request spanning ``by_server``.

        One pass over the slices sums each one's demand guesses; the
        ranking itself is :func:`~repro.core.das.rpt_of_slices`, the
        simulator's.
        """
        guess = self._demand_guesses.get
        unseen = itertools.repeat(self._default_demand)
        demands: Dict[int, float] = {}
        total = 0.0
        for server_id, keys in by_server.items():
            demands[server_id] = slice_demand = sum(map(guess, keys, unseen))
            total += slice_demand
        rpt, bottleneck = rpt_of_slices(demands, self.estimates)
        return {"rpt": rpt, "bottleneck": bottleneck, "total_demand": total}

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def owner(self, key: str) -> int:
        """The primary owner of ``key``, from the client's owner table."""
        server_id = self._owners.get(key)
        if server_id is None:
            server_id = self._owners[key] = self.ring.preference_lists((key,), 1)[0][0]
        return server_id

    def read_replica(self, key: str) -> int:
        """The replica chosen to serve reads of ``key`` this instant."""
        if self._primary_reads:
            return self.owner(key)
        candidates = self.ring.preference_list(key, self.replication_factor)
        return self.selection_policy.select(key, candidates, time.monotonic())

    def write_set(self, key: str) -> List[int]:
        """Every replica a PUT of ``key`` must reach."""
        if self.replication_factor == 1:
            return [self.owner(key)]
        return list(self.ring.preference_list(key, self.replication_factor))

    async def _tracked_call(
        self, server_id: int, mtype: str, fields: Dict, idempotent: bool = False
    ) -> Message:
        """:meth:`_call`, reported to the selection policy when it cares."""
        if not self._track_inflight:
            return await self._call(server_id, mtype, fields, idempotent=idempotent)
        started = time.monotonic()
        self.selection_policy.on_dispatch(server_id, started)
        try:
            return await self._call(server_id, mtype, fields, idempotent=idempotent)
        finally:
            now = time.monotonic()
            self.selection_policy.on_response(server_id, now, now - started)

    async def _scatter(
        self,
        requests: Sequence[Tuple[int, str, Dict]],
        partial: bool = False,
        idempotent: bool = False,
    ) -> List[Any]:
        """Send ``(server_id, type, fields)`` sub-requests, wait for them all.

        Returns their replies in order; with ``partial`` a sub-request
        that failed yields its exception instead of raising it.

        With a retry policy every sub-request runs :meth:`_call`'s
        machinery in a task of its own.  Without one there is no deadline
        to arm and nothing to retry, so the frames are written back to
        back, each reply lands in a :class:`_Slot`, and the caller wakes
        once, after the last: no task and no timer per server.
        """
        if self.retry_policy is not None:
            return await asyncio.gather(
                *(
                    self._tracked_call(server_id, mtype, fields, idempotent=idempotent)
                    for server_id, mtype, fields in requests
                ),
                return_exceptions=partial,
            )
        scatter = _Scatter(
            asyncio.get_running_loop().create_future(), len(requests), partial
        )
        sent: List[Tuple[_Connection, int, _Slot]] = []
        slots: List[_Slot] = []
        try:
            for server_id, mtype, fields in requests:
                slot = _Slot(self, scatter, server_id)
                slots.append(slot)
                try:
                    conn = self._connections.get(server_id)
                    if conn is None or conn.closed:
                        conn = await self._ensure_connection(server_id)
                    sent.append((conn, self._send(conn, mtype, fields, slot), slot))
                except (OSError, ProtocolError) as exc:
                    slot.set_exception(exc)
            await scatter.future
        finally:
            # Abandoned (failed fast, or the caller was cancelled): a late
            # reply must find no entry, and the selection policy must see
            # every dispatch end.
            for conn, request_id, slot in sent:
                if slot.outcome is None:
                    conn.pending.pop(request_id, None)
                    slot.set_exception(asyncio.CancelledError())
        return [slot.outcome for slot in slots]

    async def put(self, key: str, value: bytes) -> None:
        servers = self.write_set(key)
        tags = self._tags_for({sid: [key] for sid in servers})
        fields = {"key": key, "value": value, "tags": tags}
        replies = await self._scatter([(sid, "put", fields) for sid in servers])
        for reply in replies:
            if not reply.fields.get("ok"):
                raise ProtocolError(f"put failed: {reply.fields.get('error')}")
        self._demand_guesses[key] = self.per_op_overhead_hint + len(value) / self.byte_rate_hint

    async def get(self, key: str) -> Optional[bytes]:
        values = await self.multiget([key])
        return values[key]

    async def multiget(
        self, keys: Sequence[str], partial: bool = False
    ):
        """Fetch many keys in parallel across their owner servers.

        With ``partial=False`` (default) returns a key -> value mapping
        with None for missing keys, raising if any sub-request ultimately
        fails.  With ``partial=True`` returns ``(values, report)``:
        ``values`` holds exactly the keys whose owner servers answered,
        and the :class:`MultigetReport` names the servers (and their
        keys) that did not.  The request's completion time is governed by
        its slowest sub-request — the quantity DAS's tags are computed to
        minimize.
        """
        if not keys:
            return ({}, MultigetReport()) if partial else {}
        by_server: Dict[int, List[str]] = {}
        if self._primary_reads:
            # owner(key), written out: once per key.
            owners = self._owners
            for key in keys:
                server_id = owners.get(key)
                if server_id is None:
                    server_id = self.owner(key)
                by_server.setdefault(server_id, []).append(key)
        else:
            for key in keys:
                by_server.setdefault(self.read_replica(key), []).append(key)
        if self._want_probes:
            self._maybe_probe(keys)
        tag_time = time.monotonic()
        tags = self._tags_for(by_server)
        span_sink: Optional[List[dict]] = None
        if self.tracer is not None and self.tracer.should_sample():
            tags[TRACE_REQUESTED] = True
            span_sink = []
        server_ids = list(by_server)
        if partial:
            retries_before = self.counters["retries"].value
            hedges_before = self.counters["hedges_sent"].value
        requests = []
        for server_id, slice_keys in by_server.items():
            requests.append((server_id, "mget", {"keys": slice_keys, "tags": tags}))

        results = await self._scatter(requests, partial=partial, idempotent=True)
        reply_time = time.monotonic()
        merged: Dict[str, Optional[bytes]] = {}
        report = MultigetReport(requested=len(keys)) if partial else None
        guesses = self._demand_guesses
        overhead, byte_rate = self.per_op_overhead_hint, self.byte_rate_hint
        for server_id, reply in zip(server_ids, results):
            if isinstance(reply, Message):
                fields = reply.fields
                if fields.get("ok"):
                    if span_sink is not None:
                        span_sink.extend(fields.get("spans") or [])
                    values = fields.get("values", {})
                    for key, value in values.items():
                        if value is not None:
                            guesses[key] = overhead + len(value) / byte_rate
                    merged.update(values)
                    # Preserve the slice's key set even if the server omitted entries.
                    for key in by_server[server_id]:
                        merged.setdefault(key, None)
                    continue
                reply = ProtocolError(f"mget failed: {fields.get('error')}")
                if not partial:
                    raise reply
            report.failed_servers[server_id] = str(reply)
            report.missing_keys.extend(by_server[server_id])
        if span_sink is not None:
            self.tracer.record(
                RequestTrace(
                    request_id=next(self._trace_ids),
                    tag_time=tag_time,
                    reply_time=reply_time,
                    ops=[OpSpan(**span) for span in span_sink],
                    meta={"keys": len(keys), "servers": len(server_ids)},
                )
            )
        if not partial:
            return merged
        report.fetched = len(merged)
        report.retries = int(self.counters["retries"].value - retries_before)
        report.hedges = int(self.counters["hedges_sent"].value - hedges_before)
        if not report.complete:
            self.counters["partial_multigets"].inc()
        return merged, report

    # ------------------------------------------------------------------
    # Probing (Prequal-style freshness for probe-based policies)
    # ------------------------------------------------------------------
    def _maybe_probe(self, keys: Sequence[str]) -> None:
        """Fire up to ``probes_per_request`` control-plane probes.

        Targets are drawn without replacement from the union of the
        touched keys' replica sets, so the pool stays fresh for exactly
        the servers this client might route to next.  Probes are
        fire-and-forget background tasks: their replies refresh the pool
        through the frame handler's feedback funnel, never blocking the
        request that triggered them.  Called only when the policy wants
        probes.
        """
        candidates: Set[int] = set()
        for key in keys:
            candidates.update(
                self.ring.preference_list(key, self.replication_factor)
            )
        pool = sorted(candidates)
        n = min(self.probes_per_request, len(pool))
        if n == 0:
            return
        picks = self._probe_rng.choice(len(pool), size=n, replace=False)
        for idx in picks:
            task = asyncio.create_task(self._probe(pool[int(idx)]))
            self._probe_tasks.add(task)
            task.add_done_callback(self._probe_tasks.discard)

    async def _probe(self, server_id: int) -> None:
        """One probe round-trip (bypasses retry/hedge/breaker machinery)."""
        self.counters["probes_sent"].inc()
        # The outbound leg; the reply leg is accounted by the frame handler.
        self.selection_policy.record_control_message(
            "probe", payload_bytes=PROBE_WIRE_BYTES
        )
        try:
            await self._attempt(server_id, "probe", {}, self.probe_timeout)
        except (asyncio.TimeoutError, ConnectionError, OSError):
            self.counters["probes_failed"].inc()
        else:
            self.counters["probes_ok"].inc()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Counter snapshot: retries, timeouts, reconnects, hedges, ..."""
        snapshot: Dict[str, Any] = {
            name: int(c.value) for name, c in self.counters.items()
        }
        snapshot["breakers_open"] = sum(
            1 for b in self._breakers.values() if b.state == CircuitBreaker.OPEN
        )
        snapshot["selection"] = self.selection_policy.stats()
        return snapshot

    async def server_stats(self, server_id: int) -> Dict:
        """Scrape one server's observability surface over the wire.

        Returns the server's ``stats()`` dict (flat counters plus its
        registry snapshot under ``metrics``) via the ``stats`` protocol
        message.
        """
        reply = await self._call(server_id, "stats", {})
        if not reply.fields.get("ok"):
            raise ProtocolError(f"stats failed: {reply.fields.get('error')}")
        return reply.fields.get("stats", {})
