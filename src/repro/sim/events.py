"""Event primitives for the simulation kernel.

This module is the bottom of the simulator stack (`docs/architecture.md`
§1): every simulated occurrence — a request arrival, a service completion,
a network delivery — is an :class:`Event` scheduled on the
:class:`~repro.sim.core.Environment` heap, so its cost bounds how many
operations per second the experiment harness can simulate
(``benchmarks/bench_engine.py`` tracks the number).  Event classes
declare ``__slots__``: millions are created per run and the per-instance
``__dict__`` they would otherwise carry dominates allocation cost.

Events are one-shot: they start *pending*, become *triggered* exactly once
(either succeeding with a value or failing with an exception), and are then
*processed* by the environment, which runs their callbacks.  Processes are
themselves events that trigger when their generator terminates, so processes
can wait on other processes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.sim.core import Environment

#: Scheduling priorities.  URGENT is used for already-triggered events
#: (succeed/fail/interrupt) so they run before timeouts scheduled for
#: the same instant; NORMAL is used for timeouts.
URGENT = 0
NORMAL = 1

#: Sentinel for "this event has not been given a value yet".
PENDING = object()


class StopSimulation(Exception):
    """Raised inside the event loop to end :meth:`Environment.run` early."""

    def __init__(self, value: Any = None):
        super().__init__(value)
        self.value = value


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The interrupting party supplies a ``cause`` that the interrupted process
    can inspect to decide how to react (e.g. a server noticing its current
    operation was cancelled).
    """

    @property
    def cause(self) -> Any:
        """Whatever :meth:`Process.interrupt` was called with."""
        return self.args[0]


class Event:
    """A one-shot occurrence that processes can wait for.

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
        #: Set to True once a process (or ``run(until=...)``) consumed a
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
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with a failure.

        Waiting processes will have ``exception`` raised at their ``yield``.
        """
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
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
        if not delay >= 0:
            raise ValueError(f"delay must be non-negative and not NaN, got {delay}")
        super().__init__(env)
        self._delay = float(delay)
        self._ok = True
        self._value = value
        self._recyclable = False
        env._schedule(self, delay=self._delay, priority=NORMAL)

    @property
    def delay(self) -> float:
        """The delay this timeout was scheduled with."""
        return self._delay


class Initialize(Event):
    """Internal event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self.callbacks.append(process._resume)
        self._ok = True
        self._value = None
        env._schedule(self, priority=URGENT)


class Process(Event):
    """Wraps a generator into a simulation process.

    The process is itself an event: it triggers when the generator returns
    (succeeding with the return value) or raises (failing with the
    exception).
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = Initialize(env, self)

    def __repr__(self) -> str:
        name = getattr(self._generator, "__name__", str(self._generator))
        return f"<Process {name} at {id(self):#x}>"

    @property
    def is_alive(self) -> bool:
        """True while the wrapped generator has not terminated."""
        return not self.triggered

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting on (if any)."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has terminated and cannot be interrupted")
        if self._generator is self.env.active_process_generator:
            raise RuntimeError("a process is not allowed to interrupt itself")
        # Deliver the interrupt through a failed event scheduled immediately,
        # so interrupts respect event ordering.
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event.defused = True
        event.callbacks.append(self._resume)
        self.env._schedule(event, priority=URGENT)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the value (or error) of ``event``."""
        env = self.env
        env._active_process = self
        while True:
            # Detach from the event that woke us.
            if self._target is not None and self._target.callbacks is not None:
                try:
                    self._target.callbacks.remove(self._resume)
                except ValueError:
                    pass
            self._target = None
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    event.defused = True
                    next_event = self._generator.throw(event._value)
            except StopIteration as exc:
                env._active_process = None
                self._ok = True
                self._value = exc.value
                env._schedule(self)
                return
            except BaseException as exc:
                env._active_process = None
                self._ok = False
                self._value = exc
                env._schedule(self)
                return

            if not isinstance(next_event, Event):
                env._active_process = None
                error = RuntimeError(
                    f"process {self!r} yielded a non-event: {next_event!r}"
                )
                self._generator.throw(error)
                return

            if next_event.callbacks is not None:
                # Event still pending or triggered-but-unprocessed: register
                # and go to sleep.
                self._target = next_event
                next_event.callbacks.append(self._resume)
                env._active_process = None
                return

            # The event was already processed: continue synchronously with
            # its stored value.
            event = next_event
            if not event._ok and not event.defused:
                event.defused = True


class Condition(Event):
    """Base class for composite events (:class:`AllOf` / :class:`AnyOf`)."""

    __slots__ = ("_events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        self._count = 0
        for event in self._events:
            if event.env is not env:
                raise ValueError("cannot mix events from different environments")
        for event in self._events:
            # Pin pooled timeouts: _collect reads member values after they
            # are processed, so a recycled (reused) member would corrupt
            # the condition's result.
            if isinstance(event, Timeout):
                event._recyclable = False
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)
        if not self._events and not self.triggered:
            # Vacuously satisfied.
            self.succeed(self._collect())

    @property
    def events(self) -> list[Event]:
        """The events this condition waits on (copy)."""
        return list(self._events)

    def _collect(self) -> dict[Event, Any]:
        return {e: e._value for e in self._events if e.triggered and e._ok}

    def _satisfied(self, count: int, total: int) -> bool:
        raise NotImplementedError

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event.defused = True
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._satisfied(self._count, len(self._events)):
            self.succeed(self._collect())


class AllOf(Condition):
    """Triggers when every component event has succeeded."""

    __slots__ = ()

    def _satisfied(self, count: int, total: int) -> bool:
        return count == total


class AnyOf(Condition):
    """Triggers when at least one component event has succeeded."""

    __slots__ = ()

    def _satisfied(self, count: int, total: int) -> bool:
        return count >= 1
