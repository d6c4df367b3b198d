"""Service-time model with time-varying server performance.

Operation service time on server ``s`` at time ``t``:

    service = (per_op_overhead + value_bytes / byte_rate) / speed_factor_s(t)

The parenthesised term is the *demand*: the time on a nominal-speed
reference server.  ``speed_factor_s(t)`` is a step function of
``(time, factor)`` speed steps — the fault plan's ``SlowNode`` windows,
as :meth:`~repro.faults.plan.FaultPlan.slow_windows` returns them — and
this is the "time-varying server performance" axis the paper's
adaptivity targets.  Optional service-time noise models OS jitter.
"""

from __future__ import annotations

import bisect
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.sim.rand import as_batched


class ServiceModel:
    """Computes demands and samples actual service times for one server.

    Parameters
    ----------
    per_op_overhead:
        Fixed per-operation cost in seconds (parse, index lookup, syscall).
    byte_rate:
        Value-processing throughput in bytes/second at nominal speed.
    base_speed:
        Static heterogeneity: this server's nominal speed relative to the
        reference server (1.0 = reference).
    speed_steps:
        ``(time, factor)`` pairs: from ``time`` on, the speed is
        ``base_speed * factor`` (need not be pre-sorted).
    noise_cv:
        Coefficient of variation of multiplicative lognormal service noise;
        0 disables noise.
    rng:
        Generator for the noise; required when ``noise_cv > 0``.
    """

    def __init__(
        self,
        per_op_overhead: float = 20e-6,
        byte_rate: float = 200e6,
        base_speed: float = 1.0,
        speed_steps: Sequence[Tuple[float, float]] = (),
        noise_cv: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ):
        if per_op_overhead < 0:
            raise ConfigError("per_op_overhead must be >= 0")
        if byte_rate <= 0:
            raise ConfigError("byte_rate must be positive")
        if base_speed <= 0:
            raise ConfigError("base_speed must be positive")
        if noise_cv < 0:
            raise ConfigError("noise_cv must be >= 0")
        if noise_cv > 0 and rng is None:
            raise ConfigError("noise_cv > 0 requires an rng")
        steps = sorted(speed_steps, key=lambda step: step[0])
        for time, factor in steps:
            if time < 0:
                raise ConfigError(f"speed step time must be >= 0, got {time}")
            if factor <= 0:
                raise ConfigError(f"speed factor must be positive, got {factor}")
        self.per_op_overhead = per_op_overhead
        self.byte_rate = byte_rate
        self.base_speed = base_speed
        self.noise_cv = noise_cv
        self._rng = as_batched(rng) if rng is not None else None
        self._step_times = [time for time, _ in steps]
        self._step_factors = [factor for _, factor in steps]
        if noise_cv > 0:
            # Lognormal with mean 1 and the requested CV.
            self._sigma2 = float(np.log(1.0 + noise_cv**2))
            self._mu = -self._sigma2 / 2.0
            self._sigma = self._sigma2**0.5

    # ------------------------------------------------------------------
    def demand(self, value_size: int) -> float:
        """Reference-server service demand for a value of ``value_size``."""
        if value_size < 0:
            raise ConfigError(f"negative value size {value_size}")
        return self.per_op_overhead + value_size / self.byte_rate

    def speed_factor(self, now: float) -> float:
        """Current speed multiplier (base heterogeneity × speed step)."""
        factor = self.base_speed
        if not self._step_times:
            return factor
        # Find the last speed step at or before `now`.
        idx = bisect.bisect_right(self._step_times, now) - 1
        if idx >= 0:
            factor *= self._step_factors[idx]
        return factor

    def sample_service_time(self, value_size: int, now: float) -> float:
        """Actual service time for an operation starting at ``now``."""
        base = self.demand(value_size) / self.speed_factor(now)
        if self.noise_cv > 0:
            base *= self._rng.lognormal(self._mu, self._sigma)
        return base

    def rate_sample(self, demand: float, actual: float) -> float:
        """Observed speed for a completed op: demand seconds per wall second."""
        if actual <= 0:
            return self.base_speed
        return demand / actual

    def __repr__(self) -> str:
        return (
            f"ServiceModel(overhead={self.per_op_overhead}, "
            f"byte_rate={self.byte_rate:.3g}, base_speed={self.base_speed}, "
            f"speed_steps={len(self._step_times)})"
        )
