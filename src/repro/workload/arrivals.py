"""Request arrival processes.

Each spec hands its client a gap function: ``gaps(stream)`` returns
``gap(now)``, the time from ``now`` to the next arrival, drawn from the
client's :class:`~repro.sim.rand.BatchedStream`.  The MMPP spec provides
the time-varying load the paper's adaptivity experiments need; it is the
one process with state, and that state lives inside its gap function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

from repro.errors import WorkloadError
from repro.sim.rand import BatchedStream

#: ``gap(now)``: the time from ``now`` to the next arrival.
GapFn = Callable[[float], float]


class ArrivalSpec:
    """Base class for arrival specs."""

    def gaps(self, stream: BatchedStream) -> GapFn:
        """The gap function of one client, drawing from ``stream``."""
        raise NotImplementedError

    def mean_rate(self) -> float:
        """Long-run average arrival rate (requests/second)."""
        raise NotImplementedError

    def scaled(self, factor: float) -> "ArrivalSpec":
        """A copy of this spec with the rate multiplied by ``factor``."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# Poisson
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PoissonArrivals(ArrivalSpec):
    """Memoryless arrivals at constant ``rate`` requests/second."""

    rate: float

    def __post_init__(self):
        if self.rate <= 0:
            raise WorkloadError(f"arrival rate must be positive, got {self.rate}")

    def gaps(self, stream: BatchedStream) -> GapFn:
        scale = 1.0 / self.rate
        exponential = stream.exponential
        return lambda now: exponential(scale)

    def mean_rate(self) -> float:
        return self.rate

    def scaled(self, factor: float) -> "PoissonArrivals":
        return PoissonArrivals(rate=self.rate * factor)


# ----------------------------------------------------------------------
# Deterministic
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DeterministicArrivals(ArrivalSpec):
    """Perfectly paced arrivals: one request every ``1/rate`` seconds."""

    rate: float

    def __post_init__(self):
        if self.rate <= 0:
            raise WorkloadError(f"arrival rate must be positive, got {self.rate}")

    def gaps(self, stream: BatchedStream) -> GapFn:
        gap = 1.0 / self.rate
        return lambda now: gap

    def mean_rate(self) -> float:
        return self.rate

    def scaled(self, factor: float) -> "DeterministicArrivals":
        return DeterministicArrivals(rate=self.rate * factor)


# ----------------------------------------------------------------------
# Markov-modulated Poisson process (time-varying load)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MMPPArrivals(ArrivalSpec):
    """Markov-modulated Poisson arrivals.

    The process dwells in state ``i`` for an Exp(``1/dwell_means[i]``)
    sojourn emitting Poisson arrivals at ``rates[i]``, then moves to the
    next state cyclically.  Two states with rates (low, high) reproduce the
    paper's "time-varying load" scenario.
    """

    rates: Tuple[float, ...]
    dwell_means: Tuple[float, ...]

    def __post_init__(self):
        if len(self.rates) < 2:
            raise WorkloadError("MMPP needs at least two states")
        if len(self.rates) != len(self.dwell_means):
            raise WorkloadError("rates and dwell_means must have equal length")
        if any(r <= 0 for r in self.rates):
            raise WorkloadError("all MMPP rates must be positive")
        if any(d <= 0 for d in self.dwell_means):
            raise WorkloadError("all MMPP dwell means must be positive")

    def gaps(self, stream: BatchedStream) -> GapFn:
        """Gaps honouring state switches mid-gap.

        Uses the standard thinning-free construction: draw an exponential
        in the current state; if it crosses the state boundary, restart the
        draw from the boundary in the next state (valid by memorylessness).
        Every exponential, whatever its scale, serves from the stream's one
        standard-exponential lane, so the sequence is the scalar one.  The
        first dwell is drawn here, when the client is built.
        """
        rates, dwells = self.rates, self.dwell_means
        exponential = stream.exponential
        state = 0
        state_until = exponential(dwells[0])

        def gap(now: float) -> float:
            nonlocal state, state_until
            t = now
            total = 0.0
            while True:
                candidate = exponential(1.0 / rates[state])
                if t + candidate <= state_until:
                    return total + candidate
                # Advance to the state switch and redraw in the new state.
                total += state_until - t
                t = state_until
                state = (state + 1) % len(rates)
                state_until = t + exponential(dwells[state])

        return gap

    def mean_rate(self) -> float:
        # Time-average of rates weighted by expected dwell fraction.
        total_dwell = sum(self.dwell_means)
        return sum(r * d for r, d in zip(self.rates, self.dwell_means)) / total_dwell

    def scaled(self, factor: float) -> "MMPPArrivals":
        return MMPPArrivals(
            rates=tuple(r * factor for r in self.rates),
            dwell_means=self.dwell_means,
        )


# ----------------------------------------------------------------------
# Phased (deterministic schedule of Poisson rates)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PhasedArrivals(ArrivalSpec):
    """Poisson arrivals following a deterministic cyclic phase schedule.

    ``phases`` is a sequence of ``(duration, rate)`` pairs; the process
    emits Poisson arrivals at ``rate`` for ``duration`` seconds, then
    moves to the next phase, cycling back to the first after the last.
    Unlike :class:`MMPPArrivals` the phase boundaries are *deterministic*
    (wall-clock, not exponentially distributed), which is what workload
    specs need for warmup ramps and reproducible step loads.
    """

    phases: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        if not self.phases:
            raise WorkloadError("phased arrivals need at least one phase")
        for i, phase in enumerate(self.phases):
            if len(phase) != 2:
                raise WorkloadError(
                    f"phase {i}: expected (duration, rate), got {phase!r}"
                )
            duration, rate = phase
            if duration <= 0:
                raise WorkloadError(f"phase {i}: duration must be positive")
            if rate <= 0:
                raise WorkloadError(f"phase {i}: rate must be positive")

    def _phase_at(self, t: float, cycle: float) -> Tuple[float, float]:
        """Return (rate, end-of-phase time) for wall-clock time ``t``."""
        offset = t % cycle
        base = t - offset
        elapsed = 0.0
        for duration, rate in self.phases:
            if offset < elapsed + duration:
                return rate, base + elapsed + duration
            elapsed += duration
        # Floating-point edge: t lands exactly on the cycle boundary.
        duration, rate = self.phases[0]
        return rate, base + cycle + duration

    def gaps(self, stream: BatchedStream) -> GapFn:
        """Gaps honouring phase switches mid-gap.

        Same thinning-free construction as MMPP: draw an exponential at
        the current phase's rate; if it crosses the phase boundary,
        restart the draw from the boundary (memorylessness), except here
        the boundaries are deterministic clock times.
        """
        cycle = sum(d for d, _ in self.phases)
        exponential = stream.exponential

        def gap(now: float) -> float:
            t = now
            total = 0.0
            while True:
                rate, until = self._phase_at(t, cycle)
                candidate = exponential(1.0 / rate)
                if t + candidate <= until:
                    return total + candidate
                total += until - t
                t = until

        return gap

    def mean_rate(self) -> float:
        total = sum(d for d, _ in self.phases)
        return sum(d * r for d, r in self.phases) / total

    def scaled(self, factor: float) -> "PhasedArrivals":
        return PhasedArrivals(
            phases=tuple((d, r * factor) for d, r in self.phases)
        )
