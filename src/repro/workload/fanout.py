"""Multiget fan-out (keys per request) distributions.

Facebook's memcached analysis reports multiget batches from 1 to hundreds
of keys with a geometric-ish body; the paper sweeps fan-out directly.  All
specs expose analytic means so offered load can be calibrated exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.sim.rand import as_batched


class FanoutSampler:
    def sample(self) -> int:
        raise NotImplementedError

    def sample_block(self, n: int) -> np.ndarray:
        """``n`` fan-outs, the same ones ``n`` calls to :meth:`sample` give."""
        raise NotImplementedError


class FanoutSpec:
    def build(self, rng: np.random.Generator) -> FanoutSampler:
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def max_fanout(self) -> int:
        """Upper bound on a sample (for keyspace sanity checks)."""
        raise NotImplementedError


@dataclass(frozen=True)
class FixedFanout(FanoutSpec):
    """Every request touches exactly ``k`` keys."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise WorkloadError(f"fanout must be >= 1, got {self.k}")

    def build(self, rng: np.random.Generator) -> FanoutSampler:
        return _FixedSampler(self.k)

    def mean(self) -> float:
        return float(self.k)

    def max_fanout(self) -> int:
        return self.k


class _FixedSampler(FanoutSampler):
    def __init__(self, k: int):
        self._k = k

    def sample(self) -> int:
        return self._k

    def sample_block(self, n: int) -> np.ndarray:
        return np.full(n, self._k, dtype=np.int64)


@dataclass(frozen=True)
class UniformFanout(FanoutSpec):
    """Fan-out uniform on the integers [lo, hi]."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo < 1:
            raise WorkloadError("lo must be >= 1")
        if self.hi < self.lo:
            raise WorkloadError("hi must be >= lo")

    def build(self, rng: np.random.Generator) -> FanoutSampler:
        return _UniformFanoutSampler(self.lo, self.hi, rng)

    def mean(self) -> float:
        return (self.lo + self.hi) / 2.0

    def max_fanout(self) -> int:
        return self.hi


class _UniformFanoutSampler(FanoutSampler):
    def __init__(self, lo: int, hi: int, rng: np.random.Generator):
        self._lo = lo
        self._hi = hi
        self._rng = as_batched(rng)

    def sample(self) -> int:
        return self._rng.integers(self._lo, self._hi + 1)

    def sample_block(self, n: int) -> np.ndarray:
        return self._rng.integers_block(self._lo, self._hi + 1, n)


@dataclass(frozen=True)
class GeometricFanout(FanoutSpec):
    """Shifted geometric fan-out: 1 + Geometric, truncated at ``cap``.

    ``mean_target`` is the mean of the *untruncated* distribution; with a
    generous cap the truncation bias is negligible and ``mean()`` accounts
    for it exactly.
    """

    mean_target: float = 5.0
    cap: int = 64

    def __post_init__(self):
        if self.mean_target < 1:
            raise WorkloadError("geometric fanout mean must be >= 1")
        if self.cap < 1:
            raise WorkloadError("cap must be >= 1")

    @property
    def p(self) -> float:
        """Success probability of the underlying geometric."""
        return 1.0 / self.mean_target

    def build(self, rng: np.random.Generator) -> FanoutSampler:
        return _GeometricSampler(self.p, self.cap, rng)

    def mean(self) -> float:
        # E[min(X, cap)] for X ~ Geometric(p) on {1, 2, ...}:
        # = sum_{k>=1} P(X >= k) truncated at cap = (1 - q^cap) / p, q = 1-p.
        q = 1.0 - self.p
        return (1.0 - q**self.cap) / self.p

    def max_fanout(self) -> int:
        return self.cap


class _GeometricSampler(FanoutSampler):
    def __init__(self, p: float, cap: int, rng: np.random.Generator):
        self._p = p
        self._cap = cap
        self._rng = as_batched(rng)

    def sample(self) -> int:
        # numpy's geometric is supported on {1, 2, ...} already.
        return min(self._rng.geometric(self._p), self._cap)

    def sample_block(self, n: int) -> np.ndarray:
        return np.minimum(self._rng.geometric_block(self._p, n), self._cap)


@dataclass(frozen=True)
class BimodalFanout(FanoutSpec):
    """Small requests of ``small`` keys mixed with large ones of ``large``.

    ``p_large`` fraction of requests are large — the mix that exposes
    head-of-line blocking of small multigets behind large ones.
    """

    small: int = 2
    large: int = 32
    p_large: float = 0.1

    def __post_init__(self):
        if self.small < 1 or self.large < 1:
            raise WorkloadError("fanouts must be >= 1")
        if self.small >= self.large:
            raise WorkloadError("small must be < large")
        if not 0 < self.p_large < 1:
            raise WorkloadError("p_large must be in (0, 1)")

    def build(self, rng: np.random.Generator) -> FanoutSampler:
        return _BimodalSampler(self.small, self.large, self.p_large, rng)

    def mean(self) -> float:
        return self.small * (1 - self.p_large) + self.large * self.p_large

    def max_fanout(self) -> int:
        return self.large


class _BimodalSampler(FanoutSampler):
    def __init__(self, small: int, large: int, p_large: float, rng: np.random.Generator):
        self._small = small
        self._large = large
        self._p_large = p_large
        self._rng = as_batched(rng)

    def sample(self) -> int:
        return self._large if self._rng.random() < self._p_large else self._small

    def sample_block(self, n: int) -> np.ndarray:
        large = self._rng.random_block(n) < self._p_large
        return np.where(large, self._large, self._small).astype(np.int64)
