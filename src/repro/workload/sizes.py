"""Value-size distributions.

Sizes drive service demands (``demand = overhead + size / byte_rate``).
The lognormal and generalized-Pareto specs follow the shapes reported in
Facebook's memcached workload analysis (Atikoglu et al., SIGMETRICS 2012);
exact parameters differ per deployment, so all are configurable.  Each
spec draws its own sizes: ``draw(stream, n)`` returns ``n`` of them as an
int64 block from a :class:`~repro.sim.rand.BatchedStream`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.sim.rand import BatchedStream


class SizeSpec:
    def draw(self, stream: BatchedStream, n: int) -> np.ndarray:
        """The next ``n`` sizes from ``stream``, as int64."""
        raise NotImplementedError

    def mean(self) -> float:
        """Analytic mean size in bytes (after truncation if any)."""
        raise NotImplementedError


@dataclass(frozen=True)
class FixedSize(SizeSpec):
    """All values are exactly ``size`` bytes."""

    size: int = 1024

    def __post_init__(self):
        if self.size < 0:
            raise WorkloadError("size must be >= 0")

    def draw(self, stream: BatchedStream, n: int) -> np.ndarray:
        return np.full(n, self.size, dtype=np.int64)

    def mean(self) -> float:
        return float(self.size)



@dataclass(frozen=True)
class UniformSize(SizeSpec):
    """Sizes uniform on [lo, hi] bytes."""

    lo: int = 128
    hi: int = 4096

    def __post_init__(self):
        if self.lo < 0 or self.hi < self.lo:
            raise WorkloadError("need 0 <= lo <= hi")

    def draw(self, stream: BatchedStream, n: int) -> np.ndarray:
        return stream.integers_block(self.lo, self.hi + 1, n)

    def mean(self) -> float:
        return (self.lo + self.hi) / 2.0



@dataclass(frozen=True)
class LognormalSize(SizeSpec):
    """Lognormal sizes with the given ``median`` and shape ``sigma``.

    Samples above ``cap`` are clamped (memcached-style slab limit).  The
    ``mean()`` accounts for the clamping analytically via the lognormal
    partial expectation.
    """

    median: float = 1024.0
    sigma: float = 1.0
    cap: int = 1 << 20

    def __post_init__(self):
        if self.median <= 0:
            raise WorkloadError("median must be positive")
        if self.sigma <= 0:
            raise WorkloadError("sigma must be positive")
        if self.cap < self.median:
            raise WorkloadError("cap must be >= median")

    def draw(self, stream: BatchedStream, n: int) -> np.ndarray:
        raw = stream.lognormal_block(np.log(self.median), self.sigma, n)
        return np.clip(raw, 1.0, self.cap).astype(np.int64)

    def mean(self) -> float:
        # E[min(X, cap)] for X ~ LogNormal(mu, sigma).
        mu = np.log(self.median)
        sigma = self.sigma
        cap = float(self.cap)
        z = (np.log(cap) - mu) / sigma
        below = np.exp(mu + sigma**2 / 2) * _normal_cdf(z - sigma)
        above = cap * (1.0 - _normal_cdf(z))
        return float(below + above)


def _normal_cdf(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


@dataclass(frozen=True)
class ParetoSize(SizeSpec):
    """Plain (type-I) Pareto tail over a minimum size (heavy-tailed values).

    ``X = lo * (1 - U)^(-1/alpha)`` with support ``[lo, inf)``, truncated
    at ``cap``.  Small ``alpha`` gives the heavy tail of the
    bundled ``pareto-heavytail`` spec; ``alpha <= 1`` (infinite untruncated
    mean) is allowed because the ``cap`` truncation keeps ``mean()``
    finite.
    """

    lo: float = 256.0
    alpha: float = 1.5
    cap: int = 1 << 22

    def __post_init__(self):
        if self.lo <= 0:
            raise WorkloadError("lo must be positive")
        if self.alpha <= 0:
            raise WorkloadError("alpha must be positive")
        if self.cap <= self.lo:
            raise WorkloadError("cap must exceed lo")

    def draw(self, stream: BatchedStream, n: int) -> np.ndarray:
        raw = self.lo * (1.0 - stream.random_block(n)) ** (-1.0 / self.alpha)
        return np.minimum(raw, self.cap).astype(np.int64)

    def mean(self) -> float:
        # E[min(X, cap)] for Pareto(lo, alpha), any alpha > 0:
        #   = lo + lo^a * (cap^(1-a) - lo^(1-a)) / (1 - a)   for a != 1
        #   = lo * (1 + ln(cap / lo))                        for a == 1
        # (For a > 1 this equals the familiar
        # lo*a/(a-1) - lo^a/(a-1) * cap^(1-a) closed form.)
        a, lo, cap = self.alpha, self.lo, float(self.cap)
        if a == 1.0:
            return lo * (1.0 + np.log(cap / lo))
        return lo + lo**a * (cap ** (1 - a) - lo ** (1 - a)) / (1 - a)



@dataclass(frozen=True)
class BimodalSize(SizeSpec):
    """Mostly-small values with an occasional large blob."""

    small: int = 512
    large: int = 262144
    p_large: float = 0.05

    def __post_init__(self):
        if self.small < 0 or self.large < 0:
            raise WorkloadError("sizes must be >= 0")
        if self.small >= self.large:
            raise WorkloadError("small must be < large")
        if not 0 < self.p_large < 1:
            raise WorkloadError("p_large must be in (0, 1)")

    def draw(self, stream: BatchedStream, n: int) -> np.ndarray:
        large = stream.random_block(n) < self.p_large
        return np.where(large, self.large, self.small).astype(np.int64)

    def mean(self) -> float:
        return self.small * (1 - self.p_large) + self.large * self.p_large



@dataclass(frozen=True)
class ExponentialSize(SizeSpec):
    """Exponentially distributed sizes (memoryless service demands).

    With a small per-operation overhead this makes single-key traffic an
    (approximate) M/M/1 system — the workhorse of the simulator-validation
    tests in ``repro.analysis.theory``.
    """

    mean_size: float = 1024.0
    cap: int = 1 << 24

    def __post_init__(self):
        if self.mean_size <= 0:
            raise WorkloadError("mean_size must be positive")
        if self.cap <= self.mean_size:
            raise WorkloadError("cap must exceed mean_size")

    def draw(self, stream: BatchedStream, n: int) -> np.ndarray:
        raw = stream.exponential_block(self.mean_size, n)
        return np.minimum(raw, self.cap).astype(np.int64)

    def mean(self) -> float:
        # E[min(X, cap)] = mean * (1 - exp(-cap/mean)).
        return self.mean_size * (1.0 - np.exp(-self.cap / self.mean_size))
