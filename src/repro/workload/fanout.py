"""Multiget fan-out (keys per request) distributions.

Facebook's memcached analysis reports multiget batches from 1 to hundreds
of keys with a geometric-ish body; the paper sweeps fan-out directly.  All
specs expose analytic means so offered load can be calibrated exactly, and
each draws its own fan-outs: ``draw(stream, n)`` returns ``n`` of them as
an int64 block from a :class:`~repro.sim.rand.BatchedStream`, the same
values ``n`` scalar numpy calls on the stream's generator give.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.sim.rand import BatchedStream


class FanoutSpec:
    def draw(self, stream: BatchedStream, n: int) -> np.ndarray:
        """The next ``n`` fan-outs from ``stream``, as int64."""
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

    def draw(self, stream: BatchedStream, n: int) -> np.ndarray:
        return np.full(n, self.k, dtype=np.int64)

    def mean(self) -> float:
        return float(self.k)

    def max_fanout(self) -> int:
        return self.k



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

    def draw(self, stream: BatchedStream, n: int) -> np.ndarray:
        return stream.integers_block(self.lo, self.hi + 1, n)

    def mean(self) -> float:
        return (self.lo + self.hi) / 2.0

    def max_fanout(self) -> int:
        return self.hi



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

    def draw(self, stream: BatchedStream, n: int) -> np.ndarray:
        # numpy's geometric is supported on {1, 2, ...} already.
        return np.minimum(stream.geometric_block(self.p, n), self.cap)

    def mean(self) -> float:
        # E[min(X, cap)] for X ~ Geometric(p) on {1, 2, ...}:
        # = sum_{k>=1} P(X >= k) truncated at cap = (1 - q^cap) / p, q = 1-p.
        q = 1.0 - self.p
        return (1.0 - q**self.cap) / self.p

    def max_fanout(self) -> int:
        return self.cap



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

    def draw(self, stream: BatchedStream, n: int) -> np.ndarray:
        large = stream.random_block(n) < self.p_large
        return np.where(large, self.large, self.small).astype(np.int64)

    def mean(self) -> float:
        return self.small * (1 - self.p_large) + self.large * self.p_large

    def max_fanout(self) -> int:
        return self.large
