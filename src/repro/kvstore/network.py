"""Network latency model for client <-> server messages.

Messages are delivered after a sampled one-way delay; delivery order
between a fixed (src, dst) pair is preserved by construction when delays
are constant and may reorder when jitter is enabled — as in a real
datacenter network.

One implementation, :class:`UniformLatencyNetwork`: every pair has the
same base delay plus optional exponential jitter, which matches the
paper's single-datacenter simulation setting.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Optional

import numpy as np

from repro.errors import ConfigError
from repro.sim.core import Environment
from repro.sim.rand import as_batched

Handler = Callable[[Any], None]


class NetworkModel:
    """Base class: computes delays and delivers messages after them."""

    def __init__(self, env: Environment):
        self.env = env
        self.messages_sent = 0
        self.bytes_sent = 0
        #: Optional :class:`~repro.faults.sim.LinkFaults` installed by a
        #: fault driver; consulted per message when present.
        self.faults = None
        self.messages_dropped = 0

    def delay(self, src: Hashable, dst: Hashable) -> float:
        """One-way delay for a message from ``src`` to ``dst``."""
        raise NotImplementedError

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
        self.messages_sent += 1
        self.bytes_sent += size_bytes
        d = self.delay(src, dst)
        if d < 0:
            raise ConfigError(f"sampled negative delay {d}")
        if self.faults is not None and self.faults.active:
            extra = self.faults.verdict(src, dst)
            if extra == float("inf"):
                self.messages_dropped += 1
                return extra
            d += extra
        if d == 0:
            # Still go through the event queue for deterministic ordering.
            ev = self.env.event()
            ev.callbacks.append(lambda _e: handler(payload))
            ev.succeed()
        else:
            # Pooled: delivery timeouts are the single hottest event type
            # and nothing retains them past the callback.
            timeout = self.env.pooled_timeout(d)
            timeout.callbacks.append(lambda _e: handler(payload))
        return d


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

    def delay(self, src: Hashable, dst: Hashable) -> float:
        d = self.base_delay
        if self.jitter_mean > 0:
            d += self._rng.exponential(self.jitter_mean)
        return d
