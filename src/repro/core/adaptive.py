"""Adaptive demotion-threshold controller for DAS.

DAS demotes an operation to the background ("last") band when its tagged
RPT exceeds ``theta = k × (running mean RPT)``.  The multiplier ``k`` is
controlled per server by queue-pressure feedback:

* queue persistently *long*  → heavy load → shrink ``k`` (demote more:
  under heavy load serving the large requests last most improves the mean,
  the LRPT-last regime);
* queue persistently *short* → light load → grow ``k`` (demote almost
  nothing: at light load pure SRPT-first already minimizes mean RCT and
  demotion only adds delay to large requests).

The controller is multiplicative-increase/multiplicative-decrease over an
EWMA of observed queue lengths — simple, local, and stable.
"""

from __future__ import annotations

from typing import Optional

from repro.core.estimator import check_alpha
from repro.errors import ConfigError


class AdaptiveThreshold:
    """MIMD controller for the DAS demotion multiplier ``k``.

    Parameters
    ----------
    k_init, k_min, k_max:
        Initial value and clamp range of the multiplier.
    q_low, q_high:
        Queue-length comfort band: below ``q_low`` the controller grows
        ``k``; above ``q_high`` it shrinks it.
    gain:
        Multiplicative step per adjustment (default 5%).
    alpha:
        EWMA weight of queue-length observations.
    adapt_interval:
        Minimum simulated time between adjustments, so the controller's
        speed is load-independent.
    enabled:
        When False, ``k`` stays at ``k_init`` forever (the "no adaptation"
        ablation).
    """

    def __init__(
        self,
        k_init: float = 3.0,
        k_min: float = 0.5,
        k_max: float = 16.0,
        q_low: float = 2.0,
        q_high: float = 8.0,
        gain: float = 0.05,
        alpha: float = 0.1,
        adapt_interval: float = 1e-3,
        enabled: bool = True,
    ):
        if not 0 < k_min <= k_init <= k_max:
            raise ConfigError("need 0 < k_min <= k_init <= k_max")
        if not 0 <= q_low < q_high:
            raise ConfigError("need 0 <= q_low < q_high")
        if not 0 < gain < 1:
            raise ConfigError("gain must be in (0, 1)")
        if adapt_interval < 0:
            raise ConfigError("adapt_interval must be >= 0")
        self.k = k_init
        self.k_init = k_init
        self.k_min = k_min
        self.k_max = k_max
        self.q_low = q_low
        self.q_high = q_high
        self.gain = gain
        self.adapt_interval = adapt_interval
        self.enabled = enabled
        self.alpha = check_alpha(alpha)
        #: EWMA of observed queue lengths; None before the first sample.
        self._pressure: Optional[float] = None
        self._last_adapt = float("-inf")
        self.adjustments = 0

    def observe(self, queue_length: int, now: float) -> None:
        """Record a queue-length sample and maybe adjust ``k``."""
        pressure = self._pressure
        if pressure is None:
            pressure = float(queue_length)
        else:
            pressure += self.alpha * (queue_length - pressure)
        self._pressure = pressure
        if not self.enabled:
            return
        if now - self._last_adapt < self.adapt_interval:
            return
        self._last_adapt = now
        if pressure > self.q_high and self.k > self.k_min:
            self.k = max(self.k_min, self.k * (1.0 - self.gain))
            self.adjustments += 1
        elif pressure < self.q_low and self.k < self.k_max:
            self.k = min(self.k_max, self.k * (1.0 + self.gain))
            self.adjustments += 1

    @property
    def queue_pressure(self) -> float:
        """Smoothed queue length the controller is reacting to."""
        return self._pressure if self._pressure is not None else 0.0

    def threshold(self, rpt_scale: float) -> float:
        """Demotion threshold for the current ``k`` and RPT scale."""
        return self.k * rpt_scale

    def __repr__(self) -> str:
        return (
            f"AdaptiveThreshold(k={self.k:.3f}, pressure="
            f"{self.queue_pressure:.2f}, adjustments={self.adjustments})"
        )
