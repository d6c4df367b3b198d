"""The asyncio TCP key-value server.

Each server keeps its values in one ``dict[str, bytes]`` and owns a
:class:`~repro.runtime.scheduling.ScheduledExecutor`; connections submit
operations into the executor and the response carries the executor's
feedback snapshot — the runtime realization of piggybacked feedback.
A get of an absent key answers ``None``.

For chaos testing, a :class:`~repro.runtime.faults.FaultInjector` can be
attached: it is consulted when a connection is accepted and once per
message, and can make the server refuse, stall, or delay —
the runtime twin of the simulator's outage windows.  :meth:`crash` /
:meth:`restart` additionally model a hard process death: the listener
closes, every live connection is severed, and the executor halts without
draining, until ``restart`` brings the server back on the same port.
"""

from __future__ import annotations

import asyncio
import contextlib
from functools import partial
from typing import Any, Dict, List, Optional, Set

from repro.errors import ProtocolError
from repro.obs import MetricsRegistry, OpSpan, TRACE_REQUESTED
from repro.runtime.faults import DELAY, DROP, FaultDecision, FaultInjector
from repro.runtime.protocol import FrameProtocol, Message, write_message
from repro.runtime.scheduling import ExecutorStoppedError, QueuedOp, ScheduledExecutor


class _ServerConnection(FrameProtocol):
    """One accepted connection: frames in, replies out, nothing awaited.

    Every frame is handed to the server as it arrives, so a connection's
    in-flight messages queue together in the executor and are answered in
    the order the scheduler serves them.  Back-pressure: when the peer
    stops reading and the reply buffer passes the transport's high-water
    mark, the server stops reading that connection's requests until the
    buffer has drained.
    """

    def __init__(self, server: "KVServer"):
        super().__init__()
        self.server = server

    def connection_made(self, transport: asyncio.Transport) -> None:
        super().connection_made(transport)
        server = self.server
        if not server.faults.connection_allowed():
            transport.close()
            return
        server._c_connections.inc()
        server._connections.add(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.server._connections.discard(self)

    def message_received(self, message: Message) -> None:
        self.server._dispatch(self, message)

    def pause_writing(self) -> None:
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.transport.resume_reading()


class KVServer:
    """One key-value server listening on a TCP port.

    Parameters
    ----------
    host, port:
        Bind address; port 0 picks a free port (see :attr:`port` after
        :meth:`start`).
    scheduler / scheduler_params:
        Scheduling policy for the executor.
    byte_rate:
        Emulated backend throughput (bytes/s); None disables throttling.
    per_op_overhead:
        Emulated fixed per-operation cost in seconds.
    fault_injector:
        Optional scripted misbehaviour; defaults to a pass-through
        injector so policies can be added later via ``faults.add(...)``.
    registry:
        Metrics registry to record into.  A cluster passes one shared
        registry so every server's series lands in one scrape; a
        standalone server creates its own.  Series survive
        :meth:`crash`/:meth:`restart` (the server keeps its identity).
    load_report_interval:
        When set, the server broadcasts an unsolicited ``load_report``
        message (feedback snapshot + in-flight count) to every open
        connection each interval — the Dodoor-style control plane whose
        cost is O(connections / interval), independent of request rate.
        The broadcaster dies with :meth:`crash` (a dead server gossips
        nothing) and re-arms on :meth:`restart`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        server_id: int = 0,
        scheduler: str = "das",
        scheduler_params: Optional[Dict[str, Any]] = None,
        byte_rate: Optional[float] = 100e6,
        per_op_overhead: float = 50e-6,
        fault_injector: Optional[FaultInjector] = None,
        registry: Optional[MetricsRegistry] = None,
        load_report_interval: Optional[float] = None,
    ):
        if load_report_interval is not None and load_report_interval <= 0:
            raise ValueError("load_report_interval must be positive")
        self.host = host
        self._requested_port = port
        self.server_id = server_id
        self.storage: Dict[str, bytes] = {}
        self._scheduler = scheduler
        self._scheduler_params = scheduler_params
        self.registry = registry if registry is not None else MetricsRegistry()
        self.executor = ScheduledExecutor(
            policy_name=scheduler,
            policy_params=scheduler_params,
            byte_rate=byte_rate,
            server_id=server_id,
            registry=self.registry,
        )
        self.byte_rate = byte_rate
        self.per_op_overhead = per_op_overhead
        self.faults = fault_injector if fault_injector is not None else FaultInjector()
        self.load_report_interval = load_report_interval
        self._report_task: Optional[asyncio.Task] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[_ServerConnection] = set()
        sid = str(server_id)
        self._c_connections = self.registry.counter(
            "server_connections_total", "Connections accepted", server=sid
        )
        self._c_ops_served = self.registry.counter(
            "server_ops_total", "Data messages served OK", server=sid
        )
        self._c_errors = self.registry.counter(
            "server_errors_total", "Error replies returned", server=sid
        )
        self._c_crashes = self.registry.counter(
            "server_crashes_total", "Hard crashes injected", server=sid
        )
        self._c_probes = self.registry.counter(
            "server_probes_total", "Load probes answered", server=sid
        )
        self._c_reports = self.registry.counter(
            "server_load_reports_total",
            "Load-report messages delivered to clients",
            server=sid,
        )
        self.registry.gauge(
            "server_active_connections",
            "Currently open connections",
            fn=lambda: len(self._connections),
            server=sid,
        )

    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("server not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        await self.executor.start()
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _ServerConnection(self), self.host, self._requested_port
        )
        # Remember the concrete port so crash/restart reuses it and
        # clients can reconnect to the same endpoint.
        self._requested_port = self.port
        if self.load_report_interval is not None:
            self._report_task = asyncio.create_task(
                self._report_loop(), name=f"kv-load-report-{self.server_id}"
            )

    async def stop(self) -> None:
        await self._stop_report_loop()
        await self._close_listener()
        self._drop_connections()
        await self.executor.stop()

    async def crash(self) -> None:
        """Hard death: stop listening, sever connections, halt the executor.

        Unlike :meth:`stop` this does not drain queued work — exactly what
        a killed process would do.  :meth:`restart` brings the server back
        on the same port with storage intact (a restart, not a rebuild).
        """
        self._c_crashes.inc()
        await self._stop_report_loop()
        await self._close_listener()
        self._drop_connections()
        await self.executor.abort()

    async def restart(self) -> None:
        """Come back after :meth:`crash` on the same port."""
        if self._server is not None:
            raise RuntimeError("server is already running")
        self.executor = ScheduledExecutor(
            policy_name=self._scheduler,
            policy_params=self._scheduler_params,
            byte_rate=self.byte_rate,
            server_id=self.server_id,
            registry=self.registry,
        )
        await self.start()

    async def _close_listener(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def _drop_connections(self) -> None:
        for connection in list(self._connections):
            connection.transport.close()
        self._connections.clear()

    async def _stop_report_loop(self) -> None:
        if self._report_task is None:
            return
        self._report_task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await self._report_task
        self._report_task = None

    async def _report_loop(self) -> None:
        """Periodic ``load_report`` broadcast to every open connection.

        ``id=0`` never collides with a client correlation id (clients
        count from 1), so receivers absorb the feedback and drop the
        frame.
        """
        assert self.load_report_interval is not None
        while True:
            await asyncio.sleep(self.load_report_interval)
            message = Message(
                type="load_report",
                id=0,
                fields={
                    "feedback": self.executor.feedback(),
                    "in_flight": self.executor.in_flight,
                },
            )
            for connection in list(self._connections):
                if not connection.transport.is_closing():
                    write_message(connection.transport, message)
                    self._c_reports.inc()

    # ------------------------------------------------------------------
    def _demand(self, value_size: int) -> float:
        if self.byte_rate is None:
            return 0.0
        return self.per_op_overhead + value_size / self.byte_rate

    def _dispatch(self, connection: _ServerConnection, message: Message) -> None:
        """Serve one incoming frame; the reply is written when it is ready."""
        decision = self.faults.decide(message)
        if decision.action == DROP:
            return
        extra: Dict[str, Any] = {}
        fields = message.fields
        try:
            ops = None
            if message.type == "put":
                ops = [self._put_op(fields)]
            elif message.type == "mget":
                ops = self._get_ops(fields["keys"], fields.get("tags", {}))
            elif message.type == "get":
                ops = self._get_ops([fields["key"]], fields.get("tags", {}))
            if ops is not None:
                # Answered from inside the executor, after the last op.
                # The closure holds ``ops`` and each op's sink holds the
                # closure; the sink drops it once fired, ending that cycle.
                self.executor.submit_message(
                    ops,
                    lambda cancelled: self._finish(
                        connection, message, decision, ops, cancelled
                    ),
                )
                return
            if message.type == "stats":
                # Control plane: answered directly, never queued behind
                # data operations (a scrape must work on a loaded server).
                extra["stats"] = self.stats()
            elif message.type == "probe":
                # Control plane, like stats: a load probe must reflect the
                # server's congestion *now*, not after waiting out the very
                # queue it is trying to measure.  The reply's standard
                # feedback block carries the signals; in_flight adds the
                # in-service operation the queue length misses.
                extra["in_flight"] = self.executor.in_flight
                self._c_probes.inc()
            else:
                raise ProtocolError(f"unexpected message type {message.type!r}")
            error = None
        except KeyError as exc:
            error = f"missing field {exc}"
        except ExecutorStoppedError:
            error = "server shutting down"
        except ProtocolError as exc:
            error = str(exc)
        self._reply(connection, message, decision, {}, error, extra)

    def _finish(
        self,
        connection: _ServerConnection,
        message: Message,
        decision: FaultDecision,
        ops: List[QueuedOp],
        cancelled: bool,
    ) -> None:
        """The operations of a data message have all been served: answer it."""
        if cancelled:
            return  # crash(): the connection went with the queue
        failed = next((op for op in ops if op.error is not None), None)
        if failed is not None:
            error = f"operation on {failed.key!r} failed: {failed.error}"
            self._reply(connection, message, decision, {}, error)
            return
        extra = None
        if message.fields.get("tags", {}).get(TRACE_REQUESTED):
            extra = {
                "spans": [
                    vars(OpSpan.from_op(op, server_id=self.server_id)) for op in ops
                ]
            }
        values = {op.key: op.result for op in ops}
        self._reply(connection, message, decision, values, None, extra)

    def _reply(
        self,
        connection: _ServerConnection,
        message: Message,
        decision: FaultDecision,
        values: Dict[str, Any],
        error: Optional[str] = None,
        extra: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Build the reply to ``message`` and send it (late under a DELAY fault)."""
        if error is None:
            self._c_ops_served.inc()
        else:
            self._c_errors.inc()
        fields = {
            "ok": error is None,
            "values": values,
            "error": error,
            "feedback": self.executor.feedback(),
        }
        if extra:
            fields.update(extra)
        reply = Message("reply", message.id, fields)
        if decision.action != DELAY:
            self._send(connection, reply)
            return
        delay = decision.delay
        if decision.delay_per_byte > 0.0:
            delay += decision.delay_per_byte * self._message_value_bytes(message)
        # Holds back this reply only; the connection keeps serving others.
        asyncio.get_running_loop().call_later(delay, self._send, connection, reply)

    def _send(self, connection: _ServerConnection, reply: Message) -> None:
        transport = connection.transport
        if transport.is_closing():
            return
        try:
            write_message(transport, reply)
        except ProtocolError as exc:
            # The values asked for do not fit one frame: say so instead of
            # leaving the client waiting.
            self._c_errors.inc()
            fields = dict(reply.fields, ok=False, values={}, error=str(exc))
            write_message(transport, Message("reply", reply.id, fields))

    def _get_ops(self, keys: List[str], tags: Dict[str, Any]) -> List[QueuedOp]:
        ops = []
        for key in keys:
            size = self._size_of(key)
            op = QueuedOp(key=key, demand=self._demand(size), size=size, tag=dict(tags))
            op.work = partial(self.storage.get, key)
            ops.append(op)
        return ops

    def _size_of(self, key: str) -> int:
        value = self.storage.get(key)
        return 0 if value is None else len(value)

    def _put_op(self, fields: Dict[str, Any]) -> QueuedOp:
        key = fields["key"]
        payload = fields["value"]
        op = QueuedOp(
            key=key,
            demand=self._demand(len(payload)),
            size=len(payload),
            tag=dict(fields.get("tags", {})),
        )

        def work():
            self.storage[key] = payload
            return True

        op.work = work
        return op

    def _message_value_bytes(self, message: Message) -> int:
        """Value bytes a data message moves (size-dependent fault delays).

        Control-plane messages (stats, probe) move no value bytes, so a
        slow node still answers them promptly — like the real server,
        whose scrapes bypass the service queue.
        """
        fields = message.fields
        if message.type == "get":
            return self._size_of(fields.get("key", ""))
        if message.type == "mget":
            return sum(self._size_of(k) for k in fields.get("keys", ()))
        if message.type == "put":
            return len(fields.get("value", b""))
        return 0

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def connections(self) -> int:
        return int(self._c_connections.value)

    @property
    def ops_served(self) -> int:
        return int(self._c_ops_served.value)

    @property
    def errors_returned(self) -> int:
        return int(self._c_errors.value)

    @property
    def crashes(self) -> int:
        return int(self._c_crashes.value)

    def stats(self) -> Dict[str, Any]:
        """Counter snapshot for tests and chaos-run reporting.

        The flat keys are kept for back-compatibility; ``metrics`` holds
        the full registry snapshot (the same surface the ``stats`` wire
        message and Prometheus exposition serve).
        """
        return {
            "connections_accepted": self.connections,
            "active_connections": len(self._connections),
            "probes_answered": int(self._c_probes.value),
            "load_reports_sent": int(self._c_reports.value),
            "ops_served": self.ops_served,
            "ops_executed": self.executor.ops_executed,
            "ops_failed": self.executor.ops_failed,
            "errors_returned": self.errors_returned,
            "crashes": self.crashes,
            "faults": self.faults.counters.as_dict(),
            "lanes": self.executor.lane_stats(),
            "metrics": self.registry.snapshot(),
        }

    def metrics_text(self) -> str:
        """Prometheus text exposition of this server's registry."""
        return self.registry.to_prometheus()
