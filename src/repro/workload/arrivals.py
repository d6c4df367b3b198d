"""Request arrival processes.

Each spec builds a *sampler* whose ``next_interarrival(now)`` returns the
gap to the next request arrival.  The MMPP spec provides the time-varying
load the paper's adaptivity experiments need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.sim.rand import as_batched


class ArrivalSampler:
    """Stateful sampler interface."""

    def next_interarrival(self, now: float) -> float:
        raise NotImplementedError


class ArrivalSpec:
    """Base class for arrival specs."""

    def build(self, rng: np.random.Generator) -> ArrivalSampler:
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

    def build(self, rng: np.random.Generator) -> ArrivalSampler:
        return _PoissonSampler(self.rate, rng)

    def mean_rate(self) -> float:
        return self.rate

    def scaled(self, factor: float) -> "PoissonArrivals":
        return PoissonArrivals(rate=self.rate * factor)


class _PoissonSampler(ArrivalSampler):
    def __init__(self, rate: float, rng: np.random.Generator):
        self._scale = 1.0 / rate
        self._rng = as_batched(rng)

    def next_interarrival(self, now: float) -> float:
        return self._rng.exponential(self._scale)


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

    def build(self, rng: np.random.Generator) -> ArrivalSampler:
        return _DeterministicSampler(self.rate)

    def mean_rate(self) -> float:
        return self.rate

    def scaled(self, factor: float) -> "DeterministicArrivals":
        return DeterministicArrivals(rate=self.rate * factor)


class _DeterministicSampler(ArrivalSampler):
    def __init__(self, rate: float):
        self._gap = 1.0 / rate

    def next_interarrival(self, now: float) -> float:
        return self._gap


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

    def build(self, rng: np.random.Generator) -> ArrivalSampler:
        return _MMPPSampler(self.rates, self.dwell_means, rng)

    def mean_rate(self) -> float:
        # Time-average of rates weighted by expected dwell fraction.
        total_dwell = sum(self.dwell_means)
        return sum(r * d for r, d in zip(self.rates, self.dwell_means)) / total_dwell

    def scaled(self, factor: float) -> "MMPPArrivals":
        return MMPPArrivals(
            rates=tuple(r * factor for r in self.rates),
            dwell_means=self.dwell_means,
        )


class _MMPPSampler(ArrivalSampler):
    def __init__(
        self,
        rates: Sequence[float],
        dwell_means: Sequence[float],
        rng: np.random.Generator,
    ):
        self._rates = list(rates)
        self._dwells = list(dwell_means)
        # Batched: every exponential (any scale) serves from one shared
        # standard-exponential lane, so the sequence is bit-identical to
        # the scalar draws even as the state (and scale) changes.
        self._rng = as_batched(rng)
        self._state = 0
        self._state_until = self._rng.exponential(self._dwells[0])

    @property
    def state(self) -> int:
        return self._state

    def next_interarrival(self, now: float) -> float:
        """Sample the next gap, honouring state switches mid-gap.

        Uses the standard thinning-free construction: draw an exponential
        in the current state; if it crosses the state boundary, restart the
        draw from the boundary in the next state (valid by memorylessness).
        """
        t = now
        gap = 0.0
        while True:
            candidate = self._rng.exponential(1.0 / self._rates[self._state])
            if t + candidate <= self._state_until:
                return gap + candidate
            # Advance to the state switch and redraw in the new state.
            gap += self._state_until - t
            t = self._state_until
            self._state = (self._state + 1) % len(self._rates)
            self._state_until = t + self._rng.exponential(self._dwells[self._state])


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

    def build(self, rng: np.random.Generator) -> ArrivalSampler:
        return _PhasedSampler(self.phases, rng)

    def mean_rate(self) -> float:
        total = sum(d for d, _ in self.phases)
        return sum(d * r for d, r in self.phases) / total

    def scaled(self, factor: float) -> "PhasedArrivals":
        return PhasedArrivals(
            phases=tuple((d, r * factor) for d, r in self.phases)
        )


class _PhasedSampler(ArrivalSampler):
    def __init__(
        self,
        phases: Sequence[Tuple[float, float]],
        rng: np.random.Generator,
    ):
        self._phases = list(phases)
        self._cycle = sum(d for d, _ in self._phases)
        self._rng = as_batched(rng)

    def _phase_at(self, t: float) -> Tuple[float, float]:
        """Return (rate, end-of-phase time) for wall-clock time ``t``."""
        offset = t % self._cycle
        base = t - offset
        elapsed = 0.0
        for duration, rate in self._phases:
            if offset < elapsed + duration:
                return rate, base + elapsed + duration
            elapsed += duration
        # Floating-point edge: t lands exactly on the cycle boundary.
        duration, rate = self._phases[0]
        return rate, base + self._cycle + duration

    def next_interarrival(self, now: float) -> float:
        """Sample the next gap, honouring phase switches mid-gap.

        Same thinning-free construction as the MMPP sampler: draw an
        exponential at the current phase's rate; if it crosses the phase
        boundary, restart the draw from the boundary (memorylessness),
        except here the boundaries are deterministic clock times.
        """
        t = now
        gap = 0.0
        while True:
            rate, until = self._phase_at(t)
            candidate = self._rng.exponential(1.0 / rate)
            if t + candidate <= until:
                return gap + candidate
            gap += until - t
            t = until


# ----------------------------------------------------------------------
# Sinusoidal (diurnal) modulation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SinusoidalArrivals(ArrivalSpec):
    """Poisson arrivals with a sinusoidally modulated rate (diurnal load).

    Instantaneous rate: ``base_rate * (1 + amplitude * sin(2*pi*t /
    period))``.  Sampled by thinning against the peak rate, so the
    process is an exact non-homogeneous Poisson process.
    """

    base_rate: float
    amplitude: float = 0.5
    period: float = 10.0

    def __post_init__(self):
        if self.base_rate <= 0:
            raise WorkloadError("base_rate must be positive")
        if not 0 <= self.amplitude < 1:
            raise WorkloadError("amplitude must be in [0, 1)")
        if self.period <= 0:
            raise WorkloadError("period must be positive")

    def build(self, rng: np.random.Generator) -> ArrivalSampler:
        return _SinusoidalSampler(self.base_rate, self.amplitude, self.period, rng)

    def mean_rate(self) -> float:
        # The sine term averages to zero over a full period.
        return self.base_rate

    def scaled(self, factor: float) -> "SinusoidalArrivals":
        return SinusoidalArrivals(
            base_rate=self.base_rate * factor,
            amplitude=self.amplitude,
            period=self.period,
        )


class _SinusoidalSampler(ArrivalSampler):
    def __init__(
        self,
        base_rate: float,
        amplitude: float,
        period: float,
        rng: np.random.Generator,
    ):
        self._base = base_rate
        self._amplitude = amplitude
        self._period = period
        self._peak = base_rate * (1.0 + amplitude)
        self._rng = rng

    def _rate_at(self, t: float) -> float:
        import math

        return self._base * (
            1.0 + self._amplitude * math.sin(2.0 * math.pi * t / self._period)
        )

    def next_interarrival(self, now: float) -> float:
        # Ogata thinning: candidate gaps at the peak rate, accepted with
        # probability rate(t)/peak.
        #
        # SCALAR FALLBACK (no BatchedStream): thinning interleaves
        # exponential and uniform draws on one stream, so prefetching
        # either lane would consume the bit stream in a different order
        # than these scalar calls and silently change the sequence.
        t = now
        while True:
            t += float(self._rng.exponential(1.0 / self._peak))
            if self._rng.random() <= self._rate_at(t) / self._peak:
                return t - now
