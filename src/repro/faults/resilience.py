"""Clock-free resilience primitives shared by the sim and the runtime.

None of these classes reads a wall clock on its own — callers inject
``now`` — so the identical objects serve the asyncio client (monotonic
seconds) and the simulated client (virtual seconds).

* :class:`HedgePolicy` + :class:`LatencyTracker` — duplicate a slow read
  once it has been outstanding longer than the observed latency
  percentile (or a fixed threshold); first reply wins.
* :class:`CircuitBreaker` — consecutive failures open the breaker;
  while open, the server is skipped and marked unhealthy; after
  ``reset_timeout`` one half-open probe decides recovery.
* :class:`FailureDetectorConfig` — the declarative knob bundle the
  simulated client builds its per-server breakers from, including the
  synthetic "unhealthy" :class:`~repro.kvstore.items.Feedback` values
  pushed into ``ServerEstimates`` so selection policies and DAS taggers
  route around dead replicas.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import ConfigError


@dataclass(frozen=True)
class HedgePolicy:
    """When and how to duplicate a slow sub-request.

    A hedge fires once the primary has been outstanding longer than the
    ``percentile`` of recently observed sub-request latencies (needs at
    least ``min_samples`` observations), or ``hedge_after`` seconds when
    set, whichever is defined.  The duplicate goes to a backup replica
    (sim) or out on a dedicated secondary connection (runtime); the
    server sees an identical, idempotent read.
    """

    percentile: float = 95.0
    min_samples: int = 20
    hedge_after: Optional[float] = None
    max_hedges: int = 1

    def __post_init__(self):
        if not 0 < self.percentile < 100:
            raise ConfigError("percentile must be in (0, 100)")
        if self.min_samples < 1:
            raise ConfigError("min_samples must be >= 1")
        if self.hedge_after is not None and self.hedge_after <= 0:
            raise ConfigError("hedge_after must be positive")
        if self.max_hedges < 1:
            raise ConfigError("max_hedges must be >= 1")

    def threshold(self, tracker: "LatencyTracker") -> Optional[float]:
        """Delay before hedging, or None when not enough signal yet."""
        if self.hedge_after is not None:
            return self.hedge_after
        return tracker.percentile(self.percentile, self.min_samples)


class LatencyTracker:
    """Sliding window of sub-request latencies for hedge thresholds."""

    def __init__(self, window: int = 512):
        if window < 1:
            raise ConfigError("window must be >= 1")
        self.window = window
        self._samples: List[float] = []
        self._next = 0

    def record(self, latency: float) -> None:
        if len(self._samples) < self.window:
            self._samples.append(latency)
        else:
            self._samples[self._next] = latency
            self._next = (self._next + 1) % self.window

    def __len__(self) -> int:
        return len(self._samples)

    def percentile(self, p: float, min_samples: int = 1) -> Optional[float]:
        if len(self._samples) < min_samples:
            return None
        return float(np.percentile(self._samples, p))


class CircuitBreaker:
    """Per-server consecutive-failure breaker with half-open probing.

    Clock-free: every method accepts an injected ``now``; when omitted it
    falls back to ``time.monotonic()`` for runtime convenience.
    """

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"

    def __init__(self, failure_threshold: int = 5, reset_timeout: float = 0.5):
        if failure_threshold < 1:
            raise ConfigError("failure_threshold must be >= 1")
        if reset_timeout <= 0:
            raise ConfigError("reset_timeout must be positive")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.opened_at = float("-inf")
        self.open_count = 0

    def allow(self, now: Optional[float] = None) -> bool:
        """Whether a call may proceed; transitions open -> half-open."""
        if self.state == self.CLOSED:
            return True
        now = time.monotonic() if now is None else now
        if self.state == self.OPEN and now - self.opened_at >= self.reset_timeout:
            self.state = self.HALF_OPEN
            return True
        return self.state == self.HALF_OPEN

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self.state = self.CLOSED

    def record_failure(self, now: Optional[float] = None) -> bool:
        """Fold in a failure; returns True when this opens the breaker."""
        now = time.monotonic() if now is None else now
        self.consecutive_failures += 1
        if self.state == self.HALF_OPEN or (
            self.state == self.CLOSED
            and self.consecutive_failures >= self.failure_threshold
        ):
            self.state = self.OPEN
            self.opened_at = now
            self.open_count += 1
            return True
        if self.state == self.OPEN:
            self.opened_at = now
        return False


@dataclass(frozen=True)
class FailureDetectorConfig:
    """Per-server failure detection knobs for the simulated client.

    ``failure_threshold`` consecutive op timeouts against one server open
    its breaker for ``reset_timeout`` (virtual) seconds.  On open, the
    client feeds a synthetic "unhealthy" feedback sample — the
    ``unhealthy_*`` values below, chosen to dwarf any honest report — into
    its :class:`~repro.core.estimator.ServerEstimates` and its selection
    policy, so DAS tags and Tars/Prequal-style scoring steer work away
    from the dead replica instead of rediscovering it op by op.
    """

    failure_threshold: int = 3
    reset_timeout: float = 0.5
    unhealthy_queued_work: float = 60.0
    unhealthy_queue_length: int = 10**6
    unhealthy_rate: float = 1e-3

    def __post_init__(self):
        if self.failure_threshold < 1:
            raise ConfigError("failure_threshold must be >= 1")
        if self.reset_timeout <= 0:
            raise ConfigError("reset_timeout must be positive")
        if self.unhealthy_queued_work <= 0 or self.unhealthy_rate <= 0:
            raise ConfigError("unhealthy feedback values must be positive")
        if self.unhealthy_queue_length < 1:
            raise ConfigError("unhealthy_queue_length must be >= 1")
