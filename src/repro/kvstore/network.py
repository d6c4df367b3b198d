"""Network latency model for client <-> server messages.

Messages are delivered after a sampled one-way delay; delivery order
between a fixed (src, dst) pair is preserved by construction when delays
are constant and may reorder when jitter is enabled — as in a real
datacenter network.  A delivery is the kernel entry ``(handler,
payload)`` itself: nothing waits on it or cancels it, so it needs no
event object.

One implementation, :class:`UniformLatencyNetwork`: every pair has the
same base delay plus optional exponential jitter, which matches the
paper's single-datacenter simulation setting.

Without jitter and without an open link-fault window every message
takes the base delay, draws nothing and gets no verdict, so
:meth:`NetworkModel.send` and :meth:`NetworkModel.send_batch` count it
and schedule it without a further call.  Otherwise each message is
counted, given its delay and asked for its verdict one at a time, in
sending order.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Iterable, Optional, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.faults.plan import DROP
from repro.sim.core import NORMAL, URGENT, Environment
from repro.sim.rand import as_batched

Handler = Callable[[Any], None]

#: One message of a :meth:`NetworkModel.send_batch`:
#: ``(dst, payload, handler, size_bytes)``.
Message = Tuple[Hashable, Any, Handler, int]


def _deliver_run(run: list) -> None:
    """Hand each payload of one equal-delay run to its handler, in order."""
    for handler, payload in run:
        handler(payload)


class NetworkModel:
    """Base class: computes delays and delivers messages after them."""

    def __init__(self, env: Environment):
        self.env = env
        self.messages_sent = 0
        self.bytes_sent = 0
        #: Optional :class:`~repro.faults.plan.LinkFaults` installed by a
        #: fault driver; consulted per message when present.
        self.faults = None
        self.messages_dropped = 0
        #: The delay of every message when :meth:`delay` is a constant,
        #: set by a subclass whose delay is; None asks per message.
        self._fixed_delay: Optional[float] = None

    def delay(self, src: Hashable, dst: Hashable) -> float:
        """One-way delay for a message from ``src`` to ``dst``."""
        raise NotImplementedError

    def _admit(self, src: Hashable, dst: Hashable, size_bytes: int) -> float:
        """Count one message and sample its delay; ``inf`` when it is lost."""
        self.messages_sent += 1
        self.bytes_sent += size_bytes
        d = self.delay(src, dst)
        if d < 0:
            raise ConfigError(f"sampled negative delay {d}")
        faults = self.faults
        if faults is not None and faults.active:
            extra = faults.verdict(src, dst)
            if extra == DROP:
                self.messages_dropped += 1
                return extra
            d += extra
        return d

    def send(
        self,
        src: Hashable,
        dst: Hashable,
        payload: Any,
        handler: Handler,
        size_bytes: int = 0,
    ) -> float:
        """Deliver ``payload`` to ``handler`` after the sampled delay.

        Returns the sampled delay (useful for tests and tracing);
        ``inf`` means the message was dropped by an active link fault.
        """
        d = self._fixed_delay
        faults = self.faults
        if d is not None and (faults is None or not faults.active):
            self.messages_sent += 1
            self.bytes_sent += size_bytes
        else:
            d = self._admit(src, dst, size_bytes)
            if d == DROP:
                return d
        # A zero delay still goes through the queue, ahead of that
        # instant's timers, for deterministic ordering.
        self.env._schedule(handler, payload, d, NORMAL if d > 0 else URGENT)
        return d

    def send_batch(self, src: Hashable, messages: Iterable[Message]) -> None:
        """:meth:`send` each message from ``src``, sharing kernel entries.

        Accounting, the delay draw and the fault verdict happen per
        message in message order, exactly as if each were sent alone.
        Consecutive messages that drew the same delay would have fired
        back to back anyway (same instant, consecutive ``seq``), so each
        such run is one kernel entry that delivers them in order; with
        jitter every run has length one.  The one difference from
        separate sends: an URGENT entry a handler schedules for the
        delivery instant runs after its run, not between two of its
        messages.
        """
        d = self._fixed_delay
        faults = self.faults
        if d is not None and (faults is None or not faults.active):
            # Every message takes the same delay: one run.
            run: list = []
            total_bytes = 0
            for _, payload, handler, size_bytes in messages:
                run.append((handler, payload))
                total_bytes += size_bytes
            if run:
                self.messages_sent += len(run)
                self.bytes_sent += total_bytes
                self._schedule_run(run, d)
            return
        run = []
        run_delay = 0.0
        for dst, payload, handler, size_bytes in messages:
            d = self._admit(src, dst, size_bytes)
            if d == DROP:
                continue
            if run and d != run_delay:
                self._schedule_run(run, run_delay)
                run = []
            run.append((handler, payload))
            run_delay = d
        if run:
            self._schedule_run(run, run_delay)

    def _schedule_run(self, run: list, delay: float) -> None:
        fn, arg = run[0] if len(run) == 1 else (_deliver_run, run)
        self.env._schedule(fn, arg, delay, NORMAL if delay > 0 else URGENT)


class UniformLatencyNetwork(NetworkModel):
    """Identical base delay between all pairs, optional exponential jitter.

    Parameters
    ----------
    base_delay:
        Deterministic one-way delay component in seconds.
    jitter_mean:
        Mean of an additive exponential jitter term; 0 disables jitter.
    rng:
        Generator for jitter; required when ``jitter_mean > 0``.
    """

    def __init__(
        self,
        env: Environment,
        base_delay: float = 50e-6,
        jitter_mean: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__(env)
        if base_delay < 0:
            raise ConfigError("base_delay must be >= 0")
        if jitter_mean < 0:
            raise ConfigError("jitter_mean must be >= 0")
        if jitter_mean > 0 and rng is None:
            raise ConfigError("jitter requires an rng")
        self.base_delay = base_delay
        self.jitter_mean = jitter_mean
        self._rng = as_batched(rng) if rng is not None else None
        if jitter_mean == 0:
            self._fixed_delay = base_delay

    def delay(self, src: Hashable, dst: Hashable) -> float:
        d = self.base_delay
        if self.jitter_mean > 0:
            d += self._rng.exponential(self.jitter_mean)
        return d
