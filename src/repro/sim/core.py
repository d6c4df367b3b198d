"""The simulation environment: virtual clock plus event loop.

The pending set is one :mod:`heapq` list of ``(time, priority, seq, fn,
arg)`` tuples and the loop body is ``fn(arg)``: the heap holds calls.
``seq`` is a per-environment counter, so the order is total and runs are
deterministic.  An :class:`Event` is the entry ``(…, env._process,
event)``; an activity nobody waits on or cancels — a message delivery, a
service completion, the next arrival — is scheduled as its bare
``(handler, payload)`` and never allocates one.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional, Union

from repro.sim.events import NORMAL, URGENT, Event, StopSimulation, Timeout

__all__ = [
    "URGENT",
    "NORMAL",
    "EmptySchedule",
    "Environment",
]


class EmptySchedule(Exception):
    """Raised internally when the event queue runs dry."""


class Environment:
    """Execution environment for a discrete-event simulation.

    Time is a float starting at ``initial_time`` and only moves forward.
    Events scheduled for the same instant run in FIFO order within the same
    priority class, which makes runs fully deterministic.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock.
    """

    #: Constant; read by benchmarks/perf/trials.py (record["event_core"]).
    engine = "heap"

    #: Free-list bounds: enough to absorb every in-flight pooled object of
    #: a large cell without pinning unbounded garbage after a burst.
    _TIMEOUT_POOL_MAX = 4096
    _CB_POOL_MAX = 8192

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Callable[[Any], None], Any]] = []
        #: Entries put on the heap so far; the last one's ``seq``.
        self.events_scheduled = 0
        #: Free lists (see :meth:`pooled_timeout`): recycled Timeout
        #: objects and recycled callback lists.  ``_cb_pool`` must exist
        #: before any Event is constructed — Event.__init__ reads it.
        self._cb_pool: list[list] = []
        self._timeout_pool: list[Timeout] = []
        self.timeout_pool_hits = 0
        self.timeout_pool_misses = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    def core_stats(self) -> dict:
        """Pending-set counters."""
        # "backend" and "bucket_resizes" are constants; benchmarks/perf/trials.py
        # reads them (C.eventcore_bucket_resizes).
        return {"backend": "heap", "pending": len(self._queue), "bucket_resizes": 0}

    def __repr__(self) -> str:
        return f"<Environment now={self._now} queued={len(self._queue)}>"

    # ------------------------------------------------------------------
    # Event factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def pooled_timeout(self, delay: float, value: Any = None) -> Timeout:
        """A :class:`Timeout` recycled through a free list after it fires.

        Identical semantics to :meth:`timeout` up to the firing, after
        which the object is returned to the pool and later reused —
        callers must not retain a reference past the callbacks.  For the
        timers that are cancelled by clearing their callbacks (the
        client's op timeout and hedge timers); everything that always
        fires is a bare :meth:`_schedule` entry and needs no object at
        all.  ``C.timeout_pool_hit_rate`` of a traced ``benchmarks/perf``
        trial is the hit rate.
        """
        pool = self._timeout_pool
        if pool:
            self.timeout_pool_hits += 1
            t = pool.pop()
            t._delay = float(delay)
            t._ok = True
            t._value = value
            t.defused = False
            t._recyclable = True
            cb_pool = self._cb_pool
            t.callbacks = cb_pool.pop() if cb_pool else []
            self._schedule(self._process, t, t._delay, NORMAL)
            return t
        self.timeout_pool_misses += 1
        t = Timeout(self, delay, value)
        t._recyclable = True
        return t

    def pool_stats(self) -> dict:
        """Free-list counters: hits, misses, and the resulting hit rate."""
        hits, misses = self.timeout_pool_hits, self.timeout_pool_misses
        total = hits + misses
        return {
            "timeout_pool_hits": hits,
            "timeout_pool_misses": misses,
            "timeout_pool_hit_rate": hits / total if total else 0.0,
        }

    # ------------------------------------------------------------------
    # Scheduling and stepping
    # ------------------------------------------------------------------
    def _schedule(
        self,
        fn: Callable[[Any], None],
        arg: Any,
        delay: float = 0.0,
        priority: int = URGENT,
    ) -> None:
        """Put the call ``fn(arg)`` on the queue ``delay`` from now.

        The one way onto the heap, for events (``fn`` is
        :meth:`_process`) and for the model's bare entries alike, and the
        hottest function in the simulator.  Callers pass the priority
        themselves: URGENT for what has already happened (a triggered
        event, a zero-delay delivery), NORMAL for everything timed.
        """
        if not delay >= 0:
            raise ValueError(f"delay must be non-negative and not NaN, got {delay}")
        self.events_scheduled = seq = self.events_scheduled + 1
        heapq.heappush(self._queue, (self._now + delay, priority, seq, fn, arg))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Fire the single next entry; advance the clock to it."""
        try:
            when, _, _, fn, arg = heapq.heappop(self._queue)
        except IndexError:
            raise EmptySchedule(
                f"event queue is empty: 0 pending events at now={self._now}"
            ) from None
        self._now = when
        fn(arg)

    def _process(self, event: Event) -> None:
        """Run a triggered event's callbacks, then recycle its carcass."""
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event.defused:
            # Nobody consumed the failure: surface it rather than losing it.
            raise event._value
        callbacks.clear()
        if len(self._cb_pool) < self._CB_POOL_MAX:
            self._cb_pool.append(callbacks)
        if (
            type(event) is Timeout
            and event._recyclable
            and len(self._timeout_pool) < self._TIMEOUT_POOL_MAX
        ):
            event._value = None  # drop the payload reference while pooled
            self._timeout_pool.append(event)

    def run(self, until: Union[Event, float, None] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None`` — run until no events remain.
            a number — run until the clock reaches that time; must be
            finite-or-inf, non-negative, not NaN, and not in the past
            (``ValueError`` otherwise).
            an :class:`Event` — run until that event triggers, returning its
            value (or raising its failure).
        """
        stop_event: Optional[Event] = None
        if until is None:
            pass
        elif isinstance(until, Event):
            stop_event = until
            if stop_event.callbacks is None:
                # Already processed: nothing to run.
                if stop_event._ok:
                    return stop_event._value
                stop_event.defused = True
                raise stop_event._value
            stop_event.callbacks.append(_stop_callback)
        else:
            at = float(until)
            if at != at:
                raise ValueError("until must not be NaN")
            if at < 0.0:
                raise ValueError(f"until={at} is negative")
            if at < self._now:
                raise ValueError(f"until={at} is in the past (now={self._now})")
            stop_event = Event(self)
            stop_event._ok = True
            stop_event._value = None
            stop_event.callbacks.append(_stop_callback)
            # seq -1: before everything else scheduled for that instant.
            heapq.heappush(self._queue, (at, URGENT, -1, self._process, stop_event))

        # step() without the method call: the body runs once per entry.
        queue = self._queue
        pop = heapq.heappop
        try:
            while queue:
                when, _, _, fn, arg = pop(queue)
                self._now = when
                fn(arg)
        except StopSimulation as stop:
            return stop.value
        finally:
            # However this run ended, a stop event that has not fired must
            # not end a later run.
            if stop_event is not None and stop_event.callbacks is not None:
                stop_event.callbacks.remove(_stop_callback)
        if isinstance(until, Event):
            raise RuntimeError(
                "simulation ran out of events before the awaited "
                f"event {until!r} triggered"
            )
        return None


def _stop_callback(event: Event) -> None:
    if event._ok:
        raise StopSimulation(event._value)
    event.defused = True
    raise event._value
