"""The simulation environment: virtual clock plus a heap of calls.

The pending set is one :mod:`heapq` list of ``(time, priority, seq, fn,
arg)`` tuples and the loop body is ``fn(arg)``.  ``seq`` is a
per-environment counter, so the order is total and runs are
deterministic.  Every activity of the model is such a bare call: a
message delivery, a service completion, the next arrival, a client's
op-timeout and hedge timers.  A cancellable timer is cancelled by its
owner forgetting the timer's token; the entry still fires, finds the
token gone and returns.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

__all__ = [
    "URGENT",
    "NORMAL",
    "Environment",
    "StopSimulation",
    "stop",
]

#: Scheduling priorities.  URGENT is for what has already happened (a
#: zero-delay delivery, a stop), so it runs before the NORMAL (timed)
#: entries of the same instant.
URGENT = 0
NORMAL = 1


class StopSimulation(Exception):
    """Raised by a heap entry to end :meth:`Environment.run` early."""


def stop(_: Any = None) -> None:
    """Heap handler that ends the running :meth:`Environment.run`."""
    raise StopSimulation


class Environment:
    """Execution environment for a discrete-event simulation.

    Time is a float starting at ``initial_time`` and only moves forward.
    Entries scheduled for the same instant run in FIFO order within the
    same priority class, which makes runs fully deterministic.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock.
    """

    # Constant stubs that benchmarks/perf/trials.py reads; they go with the
    # frozen benchmark surface (ROADMAP item 8(c)).
    engine = "heap"

    def core_stats(self) -> dict:
        """Constant stub of the frozen benchmark surface (ROADMAP 8(c))."""
        return {"bucket_resizes": 0}

    def pool_stats(self) -> dict:
        """Constant stub: there is no timer pool (ROADMAP 8(c))."""
        return {"timeout_pool_hit_rate": 0.0}

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Callable[[Any], None], Any]] = []
        #: Entries put on the heap so far; the last one's ``seq``.
        self.events_scheduled = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    def __repr__(self) -> str:
        return f"<Environment now={self._now} queued={len(self._queue)}>"

    def _schedule(
        self,
        fn: Callable[[Any], None],
        arg: Any,
        delay: float = 0.0,
        priority: int = URGENT,
    ) -> None:
        """Put the call ``fn(arg)`` on the queue ``delay`` from now.

        The one way onto the heap, and the hottest function in the
        simulator.  Callers pass the priority themselves: URGENT for what
        has already happened (a zero-delay delivery, a stop), NORMAL for
        everything timed.
        """
        if not delay >= 0:
            raise ValueError(f"delay must be non-negative and not NaN, got {delay}")
        self.events_scheduled = seq = self.events_scheduled + 1
        heapq.heappush(self._queue, (self._now + delay, priority, seq, fn, arg))

    def run(self, until: Optional[float] = None) -> None:
        """Run the simulation until the heap is empty or an entry calls
        :func:`stop`.

        Parameters
        ----------
        until:
            ``None`` — no time bound.
            a number — also stop when the clock reaches that time, before
            anything else scheduled for it; must be finite-or-inf,
            non-negative, not NaN, and not in the past (``ValueError``
            otherwise).
        """
        entry = None
        if until is not None:
            at = float(until)
            if at != at:
                raise ValueError("until must not be NaN")
            if at < 0.0:
                raise ValueError(f"until={at} is negative")
            if at < self._now:
                raise ValueError(f"until={at} is in the past (now={self._now})")
            # seq -1: before everything else scheduled for that instant.
            entry = (at, URGENT, -1, stop, None)
            heapq.heappush(self._queue, entry)

        # The loop body runs once per entry; StopSimulation costs nothing
        # until it is raised.
        queue = self._queue
        pop = heapq.heappop
        try:
            while queue:
                when, _, _, fn, arg = pop(queue)
                self._now = when
                fn(arg)
        except StopSimulation:
            pass
        finally:
            # However this run ended, its time bound must not end a later run.
            if entry is not None and entry in queue:
                queue.remove(entry)
                heapq.heapify(queue)
