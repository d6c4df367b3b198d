"""Service-time model with time-varying server performance.

Operation service time on server ``s`` at time ``t``:

    service = (per_op_overhead + value_bytes / byte_rate) / speed_factor_s(t)

The parenthesised term is the *demand*: the time on a nominal-speed
reference server.  ``speed_factor_s(t)`` is a step function of
``(time, factor)`` speed steps — the fault plan's ``SlowNode`` windows,
as :meth:`~repro.faults.plan.FaultPlan.slow_windows` returns them — and
this is the "time-varying server performance" axis the paper's
adaptivity targets.  Optional multiplicative lognormal noise models OS
jitter.

The simulated :class:`~repro.kvstore.server.Server` does the arithmetic
itself, once per operation: ``op.demand / speed × noise``, where
``op.demand`` is :meth:`ServiceModel.demand` of the operation's size
(the client's key table computed it with the same expression), the speed
is :attr:`ServiceModel.base_speed` unless speed steps make
:meth:`ServiceModel.speed_factor` worth a bisect, and the noise is the
next value of :attr:`ServiceModel.noise`.
"""

from __future__ import annotations

import bisect
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.sim.rand import as_batched


class ServiceModel:
    """One server's service parameters: demands, speed and noise.

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
        self._step_times = [time for time, _ in steps]
        self._step_factors = [factor for _, factor in steps]
        #: True when speed steps make the speed depend on the time.
        self.varies = bool(steps)
        #: Multiplicative noise, one value per served operation: the
        #: draws of the rng's lognormal lane (mean 1, the requested CV),
        #: in order, or None without noise.
        self.noise: Optional[Iterator[float]] = None
        if noise_cv > 0:
            sigma2 = float(np.log(1.0 + noise_cv**2))
            self.noise = as_batched(rng).lognormal_draws(-sigma2 / 2.0, sigma2**0.5)

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

    def __repr__(self) -> str:
        return (
            f"ServiceModel(overhead={self.per_op_overhead}, "
            f"byte_rate={self.byte_rate:.3g}, base_speed={self.base_speed}, "
            f"speed_steps={len(self._step_times)})"
        )
