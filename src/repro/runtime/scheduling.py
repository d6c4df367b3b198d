"""Scheduled executor: the simulator's queues driving real work.

The executor owns a :class:`~repro.schedulers.base.ServerQueue` (any
registered policy — FCFS, SBF, DAS, ...) and serves its picks from
event-loop callbacks: no worker task, nothing awaited.  An optional
service throttle emulates a bounded-rate backend so scheduling visibly
matters in demos; production use would set ``byte_rate=None`` and let
real storage latency be the cost.

Work is served in *runs*: a run pops and executes picks back to back
and gives the event loop back once per :data:`RUN_BUDGET_SECONDS`, not
once per operation.  Completion is per *message*: the operations a
message fans into share one :class:`OpSink`, which fires after the last
of them.
"""

from __future__ import annotations

import asyncio
import logging
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence

from repro.core.estimator import EwmaEstimator
from repro.obs import MetricsRegistry, register_queue_gauges
from repro.schedulers.base import SchedulingPolicy, ServerQueue
from repro.schedulers.registry import create_policy

logger = logging.getLogger(__name__)

#: How long a run serves picks back to back before it hands the event
#: loop back (socket reads, timers and other tasks wait that long at most).
RUN_BUDGET_SECONDS = 200e-6


class ExecutorStoppedError(RuntimeError):
    """Submit rejected because the executor has been stopped or aborted.

    Raised synchronously by :meth:`ScheduledExecutor.submit` so a caller
    can never be handed a future that nothing will ever resolve.
    """


class OpSink:
    """Countdown completion shared by the operations of one message.

    ``on_done(cancelled)`` is called exactly once: with False right after
    the last operation has been served (results and errors are then on
    the operations; the executor counts ``remaining`` down itself), or
    with True when :meth:`ScheduledExecutor.abort` discarded one of them.

    The sink releases ``on_done`` once it has fired.  Every operation
    points at its sink, and ``on_done`` usually closes over those very
    operations; letting go of it breaks that cycle, so a served message
    is freed by reference counting instead of by the cyclic collector.
    """

    __slots__ = ("remaining", "on_done")

    def __init__(self, count: int, on_done: Callable[[bool], None]):
        self.remaining = count
        self.on_done: Optional[Callable[[bool], None]] = on_done

    def cancel(self) -> None:
        if self.remaining > 0:
            self.remaining = 0
            on_done, self.on_done = self.on_done, None
            on_done(True)


@dataclass(slots=True)
class QueuedOp:
    """The minimal operation shape the scheduler queues require.

    Mirrors the fields of :class:`repro.kvstore.items.Operation` that the
    queue disciplines read: ``demand``, ``tag``, and ``enqueue_time`` (set
    by the queue itself on push).
    """

    key: str
    demand: float
    #: Value bytes the operation moves — what a size-laned queue routes on.
    size: int = 0
    tag: Dict[str, Any] = field(default_factory=dict)
    enqueue_time: float = float("nan")
    #: Told when the operation has been executed (set at submit).
    sink: Optional[OpSink] = None
    #: The actual work to run, set by the server.
    work: Optional[Callable[[], Any]] = None
    #: What ``work`` returned, or the exception it raised.
    result: Any = None
    error: Optional[Exception] = None

    # The queue bookkeeping also reads nothing else; timestamps below are
    # filled by the executor for observability.
    start_time: float = float("nan")
    finish_time: float = float("nan")


class ScheduledExecutor:
    """Executor serving a scheduling policy's picks one at a time.

    Nothing runs until there is work: a submit that makes the queue
    non-empty schedules a run with ``loop.call_soon``, and a run that has
    spent its :data:`RUN_BUDGET_SECONDS` schedules its continuation the
    same way.  With ``byte_rate`` set, an operation's emulated service is
    a ``loop.call_later(demand)`` whose callback completes it and carries
    the run on.  One run (or one emulated service) is pending at a time.

    Parameters
    ----------
    policy_name / policy_params:
        Scheduler to instantiate from the registry.
    byte_rate:
        When set, each operation additionally takes ``bytes / byte_rate``
        seconds of emulated service to emulate a bounded-throughput backend.
    """

    def __init__(
        self,
        policy_name: str = "das",
        policy_params: Optional[Dict[str, Any]] = None,
        byte_rate: Optional[float] = 100e6,
        server_id: int = 0,
        rate_alpha: float = 0.2,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.policy: SchedulingPolicy = create_policy(
            policy_name, **(policy_params or {})
        )
        self.queue: ServerQueue = self.policy.make_queue()
        self.byte_rate = byte_rate
        self._rate_ewma = EwmaEstimator(rate_alpha, initial=1.0)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: The pending run or emulated service; None when idle.  It is
        #: set from scheduling until the run ends, so a submit made
        #: meanwhile schedules nothing.
        self._pending: Optional[asyncio.Handle] = None
        #: The operation in emulated service, if any.
        self._in_service: Optional[QueuedOp] = None
        #: Resolved by the run that empties the queue after :meth:`stop`.
        self._drained: Optional[asyncio.Future] = None
        self._stopping = False
        #: Lane names when the policy built a size-laned queue (dispatch
        #: order changes, the executor does not), else None.
        self.lanes = getattr(self.queue, "lanes", None)
        #: Registry instruments.  A shared registry (e.g. the cluster's)
        #: keeps one series per server across executor restarts; a fresh
        #: one is created for standalone use.
        self.registry = registry if registry is not None else MetricsRegistry()
        sid = str(server_id)
        self._ops_executed = self.registry.counter(
            "executor_ops_total", "Operations executed to completion", server=sid
        )
        self._ops_failed = self.registry.counter(
            "executor_op_failures_total", "Operations whose work raised", server=sid
        )
        self._rejected = self.registry.counter(
            "executor_rejected_total", "Submits refused after stop/abort", server=sid
        )
        self._service_hist = self.registry.histogram(
            "executor_service_seconds", "Per-operation service time", server=sid
        )
        self.registry.gauge(
            "executor_rate",
            "EWMA of measured service rate (demand-seconds/second)",
            fn=lambda: self.measured_rate,
            server=sid,
        )
        register_queue_gauges(self.registry, self.queue, server_id)

    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._loop is not None:
            raise RuntimeError("executor already started")
        self._stopping = False
        self._loop = asyncio.get_running_loop()
        if self.queue._length:
            # Work submitted before start is served from here.
            self._pending = self._loop.call_soon(self._run, None)

    async def stop(self) -> None:
        """Refuse new work, then wait until what is queued has been served.

        Concurrent calls wait for the same drain; cancelling one of them
        leaves the drain and the other waiters alone.
        """
        self._stopping = True
        if self._loop is None:
            return
        if self._pending is not None:
            if self._drained is None:
                self._drained = self._loop.create_future()
            await asyncio.shield(self._drained)
        self._loop = None

    async def abort(self) -> None:
        """Halt immediately without draining queued work (crash semantics).

        The sinks of queued operations (and of the one in service) are
        cancelled so no submitter waits for a completion that will never
        come.
        """
        self._stopping = True
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
        op, self._in_service = self._in_service, None
        if op is not None:
            op.sink.cancel()
        while self.queue._length:
            self.queue.pop(time.monotonic()).sink.cancel()
        drained, self._drained = self._drained, None
        if drained is not None:
            drained.set_result(None)
        self._loop = None

    def submit(self, op: QueuedOp) -> asyncio.Future:
        """Enqueue one operation; the returned future resolves with its result.

        Submitting before :meth:`start` is allowed (the batch is served
        once the executor runs); submitting after :meth:`stop` or
        :meth:`abort` raises :class:`ExecutorStoppedError` immediately —
        the queue is dead and a future enqueued onto it would hang its
        awaiter forever.
        """
        future = asyncio.get_running_loop().create_future()

        def resolve(cancelled: bool) -> None:
            if future.done():
                return  # the awaiter gave up
            if cancelled:
                future.cancel()
            elif op.error is not None:
                future.set_exception(op.error)
            else:
                future.set_result(op.result)

        self.submit_message([op], resolve)
        return future

    def submit_message(
        self, ops: Sequence[QueuedOp], on_done: Callable[[bool], None]
    ) -> None:
        """Enqueue the operations of one message behind one :class:`OpSink`.

        ``on_done`` runs inside a run, right after the message's last
        operation: one completion per message, no future per operation.
        Raises :class:`ExecutorStoppedError` like :meth:`submit`, before
        anything is enqueued.
        """
        if self._stopping:
            self._rejected.inc()
            raise ExecutorStoppedError("executor is stopped; operation rejected")
        if not ops:
            on_done(False)  # nothing to wait for (an mget of no keys)
            return
        sink = OpSink(len(ops), on_done)
        now = time.monotonic()
        push = self.queue.push
        for op in ops:
            op.sink = sink
            push(op, now)
        if self._pending is None and self._loop is not None:
            self._pending = self._loop.call_soon(self._run, None)

    # ------------------------------------------------------------------
    def _run(self, served: Optional[QueuedOp]) -> None:
        """One run: picks served back to back until the queue is empty or
        the budget is spent.  ``served`` is the operation whose emulated
        service just ended, completed first.

        ``pop`` is still called once per operation, so what the scheduler
        decides is the per-op loop's.
        """
        queue = self.queue
        monotonic = time.monotonic
        emulated = self.byte_rate is not None
        hook = queue.on_service_complete
        if getattr(hook, "__func__", None) is ServerQueue.on_service_complete:
            hook = None  # the base no-op; an override (or a patched one) runs
        service_hist = self._service_hist
        op = served
        if op is not None:
            self._in_service = None
            started = op.start_time
        run_ends = monotonic() + RUN_BUDGET_SECONDS
        while True:
            if op is None:
                if not queue._length:
                    break
                started = monotonic()
                op = queue.pop(started)
                op.start_time = started
                try:
                    if op.work is not None:
                        op.result = op.work()
                except Exception as exc:  # noqa: BLE001 - forwarded to the sink
                    op.error = exc
                if emulated and op.demand > 0 and op.error is None:
                    self._in_service = op
                    self._pending = self._loop.call_later(op.demand, self._run, op)
                    return
            finished = op.finish_time = monotonic()
            elapsed = finished - started
            if op.error is not None:
                self._ops_failed.value += 1.0
            else:
                if op.demand > 0 and elapsed > 0:
                    self._rate_ewma.update(op.demand / elapsed)
                self._ops_executed.value += 1.0
            service_hist.observe(elapsed)
            # A failed operation left service too; skipping the hook
            # would desynchronize adaptive queue state from reality.
            if hook is not None:
                hook(op, finished)
            # The sink's countdown; its callback fires after the last op.
            sink = op.sink
            sink.remaining -= 1
            if sink.remaining == 0:
                on_done, sink.on_done = sink.on_done, None
                try:
                    on_done(False)
                except Exception:  # noqa: BLE001 - serving must outlive a bad callback
                    logger.exception("completion callback of %r raised", op.key)
            op = None
            if finished >= run_ends and queue._length:
                # Give the loop back so a flood of zero-cost ops cannot starve it.
                self._pending = self._loop.call_soon(self._run, None)
                return
        self._pending = None
        drained, self._drained = self._drained, None
        if drained is not None:
            drained.set_result(None)

    # ------------------------------------------------------------------
    @property
    def ops_executed(self) -> int:
        """Operations executed to completion (registry-backed)."""
        return int(self._ops_executed.value)

    @property
    def ops_failed(self) -> int:
        """Operations whose work raised (registry-backed)."""
        return int(self._ops_failed.value)

    @property
    def measured_rate(self) -> float:
        return self._rate_ewma.value_or(1.0)

    @property
    def in_flight(self) -> int:
        """Operations queued plus the one in emulated service."""
        return self.queue._length + (self._in_service is not None)

    def feedback(self) -> Dict[str, float]:
        """Feedback snapshot in the wire-protocol shape."""
        rate = max(self.measured_rate, 1e-9)
        return {
            "queued_work": self.queue.queued_demand / rate,
            "queue_length": len(self.queue),
            "rate_sample": self.measured_rate,
        }

    def lane_stats(self) -> Optional[Dict[str, Any]]:
        """Per-lane depth and cutoff snapshot, None for unlaned queues."""
        if self.lanes is None:
            return None
        queue = self.queue
        return {
            "cutoff": queue.cutoff,
            "lanes": {
                lane: {
                    "share": queue.share(lane),
                    "queued": queue.lane_length(lane),
                    "routed": queue.routed[lane],
                    "served": queue.served[lane],
                }
                for lane in self.lanes
            },
        }
