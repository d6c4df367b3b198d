"""Client-side resilience policies for the asyncio runtime.

Three cooperating pieces, mirroring the simulator's fault-tolerance knobs
(``ClusterConfig.op_timeout`` / ``max_retries``) and the hedging/probing
literature (Prequal, Tars):

* :class:`RetryPolicy` — per-attempt timeout, bounded attempts with
  exponential backoff + jitter, and an optional total deadline budget for
  the whole operation.
* :class:`~repro.faults.resilience.HedgePolicy` — after the observed
  latency percentile (or a fixed threshold), issue a duplicate
  sub-request on a secondary connection; first reply wins, the loser is
  cancelled.
* :class:`~repro.faults.resilience.CircuitBreaker` — consecutive
  failures open the breaker; while
  open, calls fail fast instead of burning their retry budget, and the
  client marks the server unhealthy in its :class:`ServerEstimates` so
  DAS tags route traffic around it.  After ``reset_timeout`` one probe is
  let through (half-open); success closes the breaker.

All randomness (jitter) flows through a generator seeded by the client,
so failure-handling behaviour is reproducible in tests.

Only :class:`RetryPolicy`, the error types and :class:`MultigetReport`
live here.  The clock-free pieces (``HedgePolicy``, ``LatencyTracker``,
``CircuitBreaker``) live in :mod:`repro.faults.resilience`, where the
simulated client consumes the same objects with virtual time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigError, ReproError


class ServerUnavailableError(ReproError):
    """The operation could not be completed against its server."""

    def __init__(self, server_id: int, reason: str):
        super().__init__(f"server {server_id} unavailable: {reason}")
        self.server_id = server_id
        self.reason = reason


class OperationTimeoutError(ServerUnavailableError):
    """Every attempt timed out (or the deadline budget ran out)."""


class CircuitOpenError(ServerUnavailableError):
    """Fail-fast rejection: the server's circuit breaker is open."""

    def __init__(self, server_id: int):
        super().__init__(server_id, "circuit breaker open")


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout / retry / backoff budget for one sub-request.

    Parameters
    ----------
    op_timeout:
        Per-attempt deadline in seconds.
    max_attempts:
        Total attempts including the first send.
    backoff_base / backoff_factor:
        Sleep before attempt *n* (n >= 2) is
        ``backoff_base * backoff_factor**(n - 2)``, scaled by jitter.
    jitter:
        Fraction of the backoff randomized away: the sleep is drawn
        uniformly from ``[backoff * (1 - jitter), backoff]``.
    total_deadline:
        Optional wall-clock budget for the whole operation across all
        attempts and backoffs; exceeded -> :class:`OperationTimeoutError`.
    """

    op_timeout: float = 0.2
    max_attempts: int = 3
    backoff_base: float = 0.01
    backoff_factor: float = 2.0
    jitter: float = 0.5
    total_deadline: Optional[float] = None

    def __post_init__(self):
        if self.op_timeout <= 0:
            raise ConfigError("op_timeout must be positive")
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_factor < 1:
            raise ConfigError("backoff_base >= 0 and backoff_factor >= 1 required")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigError("jitter must be in [0, 1]")
        if self.total_deadline is not None and self.total_deadline <= 0:
            raise ConfigError("total_deadline must be positive")

    def backoff(self, attempt: int, rng: np.random.Generator) -> float:
        """Backoff sleep before ``attempt`` (1-based; attempt 1 never waits)."""
        if attempt <= 1 or self.backoff_base == 0:
            return 0.0
        nominal = self.backoff_base * self.backoff_factor ** (attempt - 2)
        if self.jitter == 0:
            return nominal
        return nominal * (1.0 - self.jitter * rng.random())


@dataclass
class MultigetReport:
    """Outcome of a ``multiget(..., partial=True)`` call.

    ``failed_servers`` maps server id -> the final error message for its
    slice; ``missing_keys`` are the requested keys owned by those servers
    (absent from the returned value mapping).
    """

    requested: int = 0
    fetched: int = 0
    failed_servers: Dict[int, str] = field(default_factory=dict)
    missing_keys: List[str] = field(default_factory=list)
    retries: int = 0
    hedges: int = 0

    @property
    def complete(self) -> bool:
        return not self.failed_servers

    def __repr__(self) -> str:
        return (
            f"MultigetReport(requested={self.requested}, fetched={self.fetched}, "
            f"failed_servers={sorted(self.failed_servers)}, "
            f"retries={self.retries}, hedges={self.hedges})"
        )
