"""Client-side estimators of server load and service rate.

Every response carries a :class:`~repro.kvstore.items.Feedback` snapshot of
the responding server's queued work and an observed service-rate sample.
Clients fold these into per-server EWMA estimates.  Between observations,
the queued-work estimate is *drained* at the estimated rate — a stale
observation of a busy server should not keep the server looking busy
forever.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ConfigError
from repro.kvstore.items import Feedback


_NEVER = float("-inf")


def check_alpha(alpha: float, name: str = "alpha") -> float:
    """Return ``alpha`` if it is a valid EWMA weight, else raise ConfigError."""
    if not 0 < alpha <= 1:
        raise ConfigError(f"{name} must be in (0, 1], got {alpha}")
    return alpha


class EwmaEstimator:
    """Exponentially weighted moving average with a defined empty state."""

    def __init__(self, alpha: float, initial: Optional[float] = None):
        self.alpha = check_alpha(alpha)
        self._value = initial
        self.samples = 0

    def update(self, x: float) -> float:
        """Fold in a sample; the first sample initializes the average."""
        if self._value is None:
            self._value = float(x)
        else:
            self._value += self.alpha * (float(x) - self._value)
        self.samples += 1
        return self._value

    @property
    def value(self) -> Optional[float]:
        """Current average, or None before any sample."""
        return self._value

    def value_or(self, default: float) -> float:
        return self._value if self._value is not None else default

    def reset(self) -> None:
        self._value = None
        self.samples = 0

    def __repr__(self) -> str:
        return f"EwmaEstimator(alpha={self.alpha}, value={self._value})"


@dataclass(slots=True)
class _ServerState:
    """Per-server estimate bundle: two EWMAs (None before a sample),
    folded in place by :meth:`ServerEstimates.observe`."""

    queued_work: Optional[float] = None
    rate: Optional[float] = None
    last_update: float = _NEVER
    observations: int = 0
    snapshot_queue_length: int = 0


class ServerEstimates:
    """A client's view of every server's congestion and speed.

    Parameters
    ----------
    alpha_work:
        EWMA weight for queued-work observations.  Relatively large
        (default 0.5) because queue length moves fast and feedback is
        already smoothed by sampling.
    alpha_rate:
        EWMA weight for service-rate samples (default 0.2).
    default_rate:
        Assumed speed of servers never heard from (1.0 = nominal).
    drain:
        When True (default), queued-work estimates decay between
        observations at the estimated service rate, modelling the queue
        draining while the client is not looking.
    """

    def __init__(
        self,
        alpha_work: float = 0.5,
        alpha_rate: float = 0.2,
        default_rate: float = 1.0,
        drain: bool = True,
    ):
        if default_rate <= 0:
            raise ConfigError("default_rate must be positive")
        self.alpha_work = check_alpha(alpha_work, "alpha_work")
        self.alpha_rate = check_alpha(alpha_rate, "alpha_rate")
        self.default_rate = default_rate
        self.drain = drain
        self._servers: Dict[int, _ServerState] = {}
        self.feedback_count = 0

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def observe(self, feedback: Feedback) -> None:
        """Fold one feedback snapshot into the estimates.

        The snapshot is a tuple and is read as one: its five values are
        unpacked once, not looked up field by field.
        """
        server_id, queued_work, queue_length, sample, timestamp = feedback
        state = self._servers.get(server_id)
        if state is None:
            state = self._servers[server_id] = _ServerState()
        work = queued_work if queued_work > 0.0 else 0.0  # max(0.0, queued_work)
        previous = state.queued_work
        if previous is None:
            state.queued_work = float(work)
        else:
            state.queued_work = previous + self.alpha_work * (work - previous)
        if sample > 0:
            previous = state.rate
            if previous is None:
                state.rate = float(sample)
            else:
                state.rate = previous + self.alpha_rate * (sample - previous)
        state.last_update = timestamp
        state.snapshot_queue_length = queue_length
        state.observations += 1
        self.feedback_count += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def rate(self, server_id: int) -> float:
        """Estimated speed of ``server_id`` (demand-seconds per second)."""
        state = self._servers.get(server_id)
        if state is None or state.rate is None:
            return self.default_rate
        return state.rate

    def queued_work(self, server_id: int, now: float) -> float:
        """Estimated queued work in *wall seconds* at ``now``.

        Feedback reports queued work in wall seconds already (the server
        converts demand by its own measured rate); draining therefore
        happens at 1 wall-second per second.
        """
        state = self._servers.get(server_id)
        if state is None or state.queued_work is None:
            return 0.0
        work = state.queued_work
        if self.drain and state.last_update > _NEVER:
            work = max(0.0, work - (now - state.last_update))
        return work

    def wait_estimate(self, server_id: int, now: float) -> float:
        """Expected delay before a newly sent op starts service."""
        return self.queued_work(server_id, now)

    def observations(self, server_id: int) -> int:
        state = self._servers.get(server_id)
        return state.observations if state is not None else 0

    def staleness(self, server_id: int, now: float) -> float:
        """Seconds since the last feedback from ``server_id`` (inf if never).

        Timeliness-aware replica selection (Tars-style) discounts stale
        congestion information by this age.
        """
        state = self._servers.get(server_id)
        if state is None or state.last_update == _NEVER:
            return float("inf")
        return max(0.0, now - state.last_update)

    def queue_length(self, server_id: int) -> int:
        """Queue length reported by the most recent feedback (0 if never)."""
        state = self._servers.get(server_id)
        return state.snapshot_queue_length if state is not None else 0

    def known_servers(self) -> list[int]:
        return sorted(self._servers)

    def __repr__(self) -> str:
        return (
            f"ServerEstimates(servers={len(self._servers)}, "
            f"feedback={self.feedback_count})"
        )
