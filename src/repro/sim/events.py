"""Event primitives for the simulation kernel.

This module is the bottom of the simulator stack (`docs/architecture.md`
§1): an :class:`Event` is what the :class:`~repro.sim.core.Environment`
schedules when something may be waited on (``run(until=event)``), carry
several callbacks, fail, or be cancelled by clearing its callbacks — the
client's op-timeout and hedge timers, a cluster's drained signal.  The
occurrences that always fire exactly one handler (an arrival, a network
delivery, a service completion) are bare heap entries and never build
one.  Event classes declare ``__slots__``, so an instance carries no
``__dict__``.

Events are one-shot: they start *pending*, become *triggered* exactly once
(either succeeding with a value or failing with an exception), and are then
*processed* by the environment, which runs their callbacks.  A recurring
activity is a callback that arms the next :class:`Timeout` itself.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.sim.core import Environment

#: Scheduling priorities.  URGENT is used for already-triggered events
#: (succeed/fail) so they run before timeouts scheduled for the same
#: instant; NORMAL is used for timeouts.
URGENT = 0
NORMAL = 1

#: Sentinel for "this event has not been given a value yet".
PENDING = object()


class StopSimulation(Exception):
    """Raised inside the event loop to end :meth:`Environment.run` early."""

    def __init__(self, value: Any = None):
        super().__init__(value)
        self.value = value


class Event:
    """A one-shot occurrence that callbacks can be attached to.

    Parameters
    ----------
    env:
        The environment this event belongs to.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused")

    def __init__(self, env: "Environment"):
        self.env = env
        # Callback lists are recycled by the environment after processing
        # (every event allocates one and drops it within a few events of
        # its creation — a textbook free-list case).
        cb_pool = env._cb_pool
        self.callbacks: Optional[list[Callable[["Event"], None]]] = (
            cb_pool.pop() if cb_pool else []
        )
        self._value: Any = PENDING
        self._ok: bool = True
        #: Set to True once a callback (or ``run(until=...)``) consumed a
        #: failure, so unhandled failures can be detected.
        self.defused: bool = False

    def __repr__(self) -> str:
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"

    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not be processed yet)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the environment has run this event's callbacks."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        if not self.triggered:
            raise RuntimeError("event is not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event succeeded with (or its failure exception)."""
        if self._value is PENDING:
            raise RuntimeError("event is not yet triggered")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self.env._process, self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with a failure.

        Unless a callback sets ``defused``, the environment re-raises
        ``exception`` out of ``run()`` once the event is processed.
        """
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env._schedule(self.env._process, self)
        return self


class Timeout(Event):
    """An event that fires ``delay`` time units after its creation.

    Timeouts created via :meth:`Environment.pooled_timeout` are marked
    recyclable: the environment returns them to a free list right after
    their callbacks run (timeouts are single-shot, so the object is dead
    at that point) and hands the same object out again later.  Holding a
    reference to a recyclable timeout past its firing is therefore
    undefined; the plain :meth:`Environment.timeout` factory never
    recycles.
    """

    __slots__ = ("_delay", "_recyclable")

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        super().__init__(env)
        self._delay = float(delay)
        self._ok = True
        self._value = value
        self._recyclable = False
        env._schedule(env._process, self, self._delay, NORMAL)

    @property
    def delay(self) -> float:
        """The delay this timeout was scheduled with."""
        return self._delay
