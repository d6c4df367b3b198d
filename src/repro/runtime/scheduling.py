"""Scheduled executor: the simulator's queues driving real work.

The executor owns a :class:`~repro.schedulers.base.ServerQueue` (any
registered policy — FCFS, SBF, DAS, ...) and a single worker task that
repeatedly pops the queue's pick and executes it.  An optional service
throttle emulates a bounded-rate backend so scheduling visibly matters in
demos; production use would set ``byte_rate=None`` and let real storage
latency be the cost.

The worker serves *runs*: it pops and executes picks back to back and
gives the event loop a turn once per :data:`RUN_BUDGET_SECONDS`, not once
per operation.  Completion is per *message*: the operations a message
fans into share one :class:`OpSink`, which fires after the last of them.
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

#: How long the worker serves picks back to back before it yields the
#: event loop (socket reads, timers and other tasks wait that long at most).
RUN_BUDGET_SECONDS = 200e-6


class ExecutorStoppedError(RuntimeError):
    """Submit rejected because the executor has been stopped or aborted.

    Raised synchronously by :meth:`ScheduledExecutor.submit` so a caller
    can never be handed a future that no worker will ever resolve.
    """


class OpSink:
    """Countdown completion shared by the operations of one message.

    ``on_done(cancelled)`` is called exactly once: with False right after
    the last operation has been served (results and errors are then on
    the operations), or with True when :meth:`ScheduledExecutor.abort`
    discarded one of them.

    The sink releases ``on_done`` once it has fired.  Every operation
    points at its sink, and ``on_done`` usually closes over those very
    operations; letting go of it breaks that cycle, so a served message
    is freed by reference counting instead of by the cyclic collector.
    """

    __slots__ = ("remaining", "on_done")

    def __init__(self, count: int, on_done: Callable[[bool], None]):
        self.remaining = count
        self.on_done: Optional[Callable[[bool], None]] = on_done

    def op_done(self) -> None:
        self.remaining -= 1
        if self.remaining == 0:
            on_done, self.on_done = self.on_done, None
            on_done(False)

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
    """Single-worker executor ordered by a scheduling policy.

    Parameters
    ----------
    policy_name / policy_params:
        Scheduler to instantiate from the registry.
    byte_rate:
        When set, each operation additionally sleeps ``bytes / byte_rate``
        seconds to emulate a bounded-throughput backend.
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
        self._wakeup = asyncio.Event()
        self._worker: Optional[asyncio.Task] = None
        self._stopping = False
        self._serving = False
        #: Lane names when the policy built a size-laned queue (dispatch
        #: order changes, the worker does not), else None.
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
        if self._worker is not None:
            raise RuntimeError("executor already started")
        self._stopping = False
        self._worker = asyncio.create_task(self._run(), name="scheduled-executor")

    async def stop(self) -> None:
        self._stopping = True
        self._wakeup.set()
        if self._worker is not None:
            await self._worker
            self._worker = None

    async def abort(self) -> None:
        """Halt immediately without draining queued work (crash semantics).

        The sinks of queued operations (and of the one in service) are
        cancelled so no submitter waits for a completion that will never
        come.
        """
        self._stopping = True
        if self._worker is not None:
            self._worker.cancel()
            try:
                await self._worker
            except asyncio.CancelledError:
                pass
            self._worker = None
        while len(self.queue) > 0:
            self.queue.pop(time.monotonic()).sink.cancel()

    def submit(self, op: QueuedOp) -> asyncio.Future:
        """Enqueue one operation; the returned future resolves with its result.

        Submitting before :meth:`start` is allowed (the batch is served
        once the worker runs); submitting after :meth:`stop` or
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

        ``on_done`` runs inside the worker, right after the message's last
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
        for op in ops:
            op.sink = sink
            self.queue.push(op, now)
        self._wakeup.set()

    # ------------------------------------------------------------------
    async def _run(self) -> None:
        queue = self.queue
        monotonic = time.monotonic
        while True:
            if len(queue) == 0:
                self._wakeup.clear()
                if self._stopping:
                    return
                await self._wakeup.wait()
                continue
            # One run: picks served back to back until the queue is empty
            # or the budget is spent.  ``pop`` is still called once per
            # operation, so what the scheduler decides is unchanged.
            run_ends = monotonic() + RUN_BUDGET_SECONDS
            while len(queue) > 0:
                started = monotonic()
                op = queue.pop(started)
                op.start_time = started
                self._serving = True
                try:
                    if op.work is not None:
                        op.result = op.work()
                except Exception as exc:  # noqa: BLE001 - forwarded to the sink
                    op.error = exc
                if self.byte_rate is not None and op.demand > 0 and op.error is None:
                    try:
                        await asyncio.sleep(op.demand)
                    except asyncio.CancelledError:
                        op.sink.cancel()  # abort() caught this one in service
                        raise
                    run_ends = monotonic() + RUN_BUDGET_SECONDS
                finished = op.finish_time = monotonic()
                self._serving = False
                elapsed = finished - started
                if op.error is not None:
                    self._ops_failed.inc()
                else:
                    if op.demand > 0 and elapsed > 0:
                        self._rate_ewma.update(op.demand / elapsed)
                    self._ops_executed.inc()
                self._service_hist.observe(elapsed)
                # A failed operation left service too; skipping the hook
                # would desynchronize adaptive queue state from reality.
                queue.on_service_complete(op, finished)
                try:
                    op.sink.op_done()
                except Exception:  # noqa: BLE001 - the worker must outlive a bad callback
                    logger.exception("completion callback of %r raised", op.key)
                if finished >= run_ends:
                    # Yield so a flood of zero-cost ops cannot starve the loop.
                    await asyncio.sleep(0)
                    run_ends = monotonic() + RUN_BUDGET_SECONDS

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
        """Operations queued plus the one currently in service."""
        return len(self.queue) + (1 if self._serving else 0)

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
