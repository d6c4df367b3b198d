"""Value-size distributions.

Sizes drive service demands (``demand = overhead + size / byte_rate``).
The lognormal and generalized-Pareto specs follow the shapes reported in
Facebook's memcached workload analysis (Atikoglu et al., SIGMETRICS 2012);
exact parameters differ per deployment, so all are configurable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.sim.rand import as_batched


class SizeSampler:
    def sample(self) -> int:
        raise NotImplementedError

    def sample_block(self, n: int) -> np.ndarray:
        """``n`` sizes, identical to ``n`` successive :meth:`sample` calls.

        Subclasses with a vectorizable draw override this; the fallback
        just loops (used by e.g. custom user samplers).
        """
        return np.asarray([self.sample() for _ in range(n)], dtype=np.int64)


class SizeSpec:
    def build(self, rng: np.random.Generator) -> SizeSampler:
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

    def build(self, rng: np.random.Generator) -> SizeSampler:
        return _FixedSizeSampler(self.size)

    def mean(self) -> float:
        return float(self.size)


class _FixedSizeSampler(SizeSampler):
    def __init__(self, size: int):
        self._size = size

    def sample(self) -> int:
        return self._size

    def sample_block(self, n: int) -> np.ndarray:
        return np.full(n, self._size, dtype=np.int64)


@dataclass(frozen=True)
class UniformSize(SizeSpec):
    """Sizes uniform on [lo, hi] bytes."""

    lo: int = 128
    hi: int = 4096

    def __post_init__(self):
        if self.lo < 0 or self.hi < self.lo:
            raise WorkloadError("need 0 <= lo <= hi")

    def build(self, rng: np.random.Generator) -> SizeSampler:
        return _UniformSizeSampler(self.lo, self.hi, rng)

    def mean(self) -> float:
        return (self.lo + self.hi) / 2.0


class _UniformSizeSampler(SizeSampler):
    def __init__(self, lo: int, hi: int, rng: np.random.Generator):
        self._lo = lo
        self._hi = hi
        self._rng = as_batched(rng)

    def sample(self) -> int:
        return self._rng.integers(self._lo, self._hi + 1)

    def sample_block(self, n: int) -> np.ndarray:
        return self._rng.integers_block(self._lo, self._hi + 1, n)


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

    def build(self, rng: np.random.Generator) -> SizeSampler:
        return _LognormalSampler(np.log(self.median), self.sigma, self.cap, rng)

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


class _LognormalSampler(SizeSampler):
    def __init__(self, mu: float, sigma: float, cap: int, rng: np.random.Generator):
        self._mu = mu
        self._sigma = sigma
        self._cap = cap
        self._rng = as_batched(rng)

    def sample(self) -> int:
        raw = self._rng.lognormal(self._mu, self._sigma)
        return int(min(max(1.0, raw), self._cap))

    def sample_block(self, n: int) -> np.ndarray:
        raw = self._rng.lognormal_block(self._mu, self._sigma, n)
        return np.clip(raw, 1.0, self._cap).astype(np.int64)


@dataclass(frozen=True)
class ParetoSize(SizeSpec):
    """Plain (type-I) Pareto tail over a minimum size (heavy-tailed values).

    ``X = lo * (1 - U)^(-1/alpha)`` with support ``[lo, inf)``, truncated
    at ``cap``.  Small ``alpha`` gives the heavy tail used in our
    "heavytail" traffic pattern; ``alpha <= 1`` (infinite untruncated
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

    def build(self, rng: np.random.Generator) -> SizeSampler:
        return _ParetoSampler(self.lo, self.alpha, self.cap, rng)

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


class _ParetoSampler(SizeSampler):
    def __init__(self, lo: float, alpha: float, cap: int, rng: np.random.Generator):
        self._lo = lo
        self._alpha = alpha
        self._cap = cap
        self._rng = as_batched(rng)

    def sample(self) -> int:
        u = self._rng.random()
        raw = self._lo * (1.0 - u) ** (-1.0 / self._alpha)
        return int(min(raw, self._cap))

    def sample_block(self, n: int) -> np.ndarray:
        us = self._rng.random_block(n)
        raw = self._lo * (1.0 - us) ** (-1.0 / self._alpha)
        return np.minimum(raw, self._cap).astype(np.int64)


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

    def build(self, rng: np.random.Generator) -> SizeSampler:
        return _BimodalSizeSampler(self.small, self.large, self.p_large, rng)

    def mean(self) -> float:
        return self.small * (1 - self.p_large) + self.large * self.p_large


class _BimodalSizeSampler(SizeSampler):
    def __init__(self, small: int, large: int, p_large: float, rng: np.random.Generator):
        self._small = small
        self._large = large
        self._p_large = p_large
        self._rng = as_batched(rng)

    def sample(self) -> int:
        return self._large if self._rng.random() < self._p_large else self._small

    def sample_block(self, n: int) -> np.ndarray:
        us = self._rng.random_block(n)
        return np.where(us < self._p_large, self._large, self._small).astype(np.int64)


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

    def build(self, rng: np.random.Generator) -> SizeSampler:
        return _ExponentialSampler(self.mean_size, self.cap, rng)

    def mean(self) -> float:
        # E[min(X, cap)] = mean * (1 - exp(-cap/mean)).
        return self.mean_size * (1.0 - np.exp(-self.cap / self.mean_size))


class _ExponentialSampler(SizeSampler):
    def __init__(self, mean_size: float, cap: int, rng: np.random.Generator):
        self._mean = mean_size
        self._cap = cap
        self._rng = as_batched(rng)

    def sample(self) -> int:
        return int(min(self._rng.exponential(self._mean), self._cap))

    def sample_block(self, n: int) -> np.ndarray:
        raw = self._rng.exponential_block(self._mean, n)
        return np.minimum(raw, self._cap).astype(np.int64)
