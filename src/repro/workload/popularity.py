"""Key popularity distributions.

A popularity spec builds a sampler whose one call, ``sample_block``,
draws *distinct* key indices in ``[0, keyspace_size)`` for each multiget
of a block.  Zipf is the workhorse (the standard model for KV-store key
skew); hotspot models a small set of very hot keys over a uniform base.

``build`` takes the largest fan-out the sampler will be asked for
(``max_fanout``, None when unknown): the uniform sampler uses it to
decide, once, whether it can draw every request from raw words.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import WorkloadError
from repro.sim.rand import RawWords, as_batched


def choice_uses_floyd(pop: int, n: int) -> bool:
    """Whether numpy draws ``choice(pop, n, replace=False)`` by Floyd.

    Otherwise (numpy 2.x) it shuffles the tail of ``arange(pop)``.
    """
    return n < pop and (pop <= 10_000 or n <= pop // 50)


class PopularitySampler:
    """Draws distinct key indices for blocks of requests.

    A sampler answers one call, :meth:`sample_block`.  A law drawn key by
    key names its next candidates in :meth:`_candidates` and shares the
    rejection loop in :meth:`_distinct`.
    """

    def __init__(self, keyspace_size: int, rng: np.random.Generator):
        if keyspace_size < 1:
            raise WorkloadError("keyspace_size must be >= 1")
        self.keyspace_size = keyspace_size
        self._rng = rng

    def sample_block(self, counts) -> List[int]:
        """Distinct indices for a block of requests, concatenated.

        ``counts`` holds each request's fan-out; request ``i``'s keys are
        the ``counts[i]`` entries after those of requests ``0..i-1``.
        """
        out: List[int] = []
        for n in counts:
            out.extend(self._distinct(int(n)))
        return out

    def _check(self, n: int) -> None:
        if n > self.keyspace_size:
            raise WorkloadError(
                f"cannot draw {n} distinct keys from a keyspace of "
                f"{self.keyspace_size}"
            )

    def _candidates(self, k: int) -> List[int]:
        """The law's next ``k`` single-key draws, in order."""
        raise NotImplementedError

    def _distinct(self, n: int) -> List[int]:
        """``n`` distinct indices by rejection over the marginal law.

        Each round draws as many candidates as keys are still missing
        (capped by the remaining rejection budget) and accepts new indices
        in draw order, so a request takes exactly the draws a key-by-key
        loop would.  With realistic skew and fan-out far below the
        keyspace the expected number of redraws is tiny.
        """
        self._check(n)
        chosen: List[int] = []
        seen: set = set()
        guard = 0
        limit = 1000 * n + 1000
        while len(chosen) < n:
            take = min(n - len(chosen), limit - guard + 1)
            for idx in self._candidates(take):
                if idx not in seen:
                    seen.add(idx)
                    chosen.append(idx)
            guard += take
            if guard > limit and len(chosen) < n:
                # Extremely skewed distribution: fill the remainder from
                # the least-popular tail deterministically rather than loop.
                for idx in range(self.keyspace_size):
                    if idx not in seen:
                        seen.add(idx)
                        chosen.append(idx)
                        if len(chosen) == n:
                            break
                break
        return chosen


class PopularitySpec:
    """Base class for popularity specs."""

    def build(
        self,
        keyspace_size: int,
        rng: np.random.Generator,
        max_fanout: Optional[int] = None,
    ) -> PopularitySampler:
        raise NotImplementedError


@dataclass(frozen=True)
class UniformPopularity(PopularitySpec):
    """Every key equally likely."""

    def build(
        self,
        keyspace_size: int,
        rng: np.random.Generator,
        max_fanout: Optional[int] = None,
    ) -> PopularitySampler:
        return _UniformKeys(keyspace_size, rng, max_fanout)


class _UniformKeys(PopularitySampler):
    """Uniform distinct keys: ``Generator.choice(pop, n, replace=False)``.

    When every fan-out up to ``max_fanout`` falls in numpy's Floyd branch
    (:func:`choice_uses_floyd`) and the stream is PCG64, the sampler
    reproduces ``choice`` from raw words (:class:`RawWords`), a block of
    requests at a time:

    1. Floyd's algorithm: for ``j`` in ``pop - n .. pop - 1`` draw ``v``
       in ``[0, j]``; keep ``v``, or ``j`` if ``v`` was already kept;
    2. numpy's Fisher–Yates pass over the ``n`` picks: for ``i`` in
       ``n - 1 .. 1`` swap position ``i`` with a draw in ``[0, i]``.

    A request takes ``2n - 1`` words, all drawn in one vectorised
    :meth:`RawWords.bounded` call per block; Python runs only for the
    requests whose Floyd draws collide and for the swaps.  Otherwise (no
    cap known, a cap numpy serves by tail shuffle, another bit
    generator) every draw stays a ``choice`` call.  The choice is made
    here, once: prefetched words must never interleave with a numpy draw
    on the same stream.
    """

    def __init__(
        self,
        keyspace_size: int,
        rng: np.random.Generator,
        max_fanout: Optional[int] = None,
    ):
        super().__init__(keyspace_size, rng)
        # Floyd's range is a prefix of fan-outs, so the cap decides it.
        emulate = (
            max_fanout is not None
            and isinstance(rng.bit_generator, np.random.PCG64)
            and choice_uses_floyd(keyspace_size, max_fanout)
        )
        self._max_fanout = max_fanout
        self._words: Optional[RawWords] = RawWords(rng) if emulate else None

    def _check(self, n: int) -> None:
        super()._check(n)
        if self._words is not None and n > self._max_fanout:
            raise WorkloadError(
                f"fan-out {n} is above the cap {self._max_fanout} this "
                "sampler was built for"
            )

    def _distinct(self, n: int) -> List[int]:
        # No rejection: one ``choice`` call draws the whole request.
        self._check(n)
        return self._rng.choice(self.keyspace_size, size=n, replace=False).tolist()

    def sample_block(self, counts) -> List[int]:
        if self._words is None:
            return super().sample_block(counts)
        n = np.asarray(counts, dtype=np.int64)
        if n.size:
            self._check(int(n.max()))
        pop = self.keyspace_size
        # Draw t of a request with fan-out k: Floyd bound pop - k + 1 + t
        # for t < k, then Fisher–Yates bound 2k - t (k down to 2).
        lengths = 2 * n - 1
        owner = np.repeat(np.arange(n.shape[0]), lengths)
        t = np.arange(owner.shape[0]) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        k = n[owner]
        floyd = t < k
        draws = self._words.bounded(np.where(floyd, pop - k + 1 + t, 2 * k - t))
        picks_arr = draws[floyd].astype(np.int64)
        picks = picks_arr.tolist()
        starts = np.cumsum(n) - n
        # Floyd keeps every draw unless one repeats within its request.
        tagged = np.sort(owner[floyd] * pop + picks_arr)
        repeats = tagged[1:][tagged[1:] == tagged[:-1]]
        if repeats.size:
            for r in np.unique(repeats // pop).tolist():
                start, fanout = int(starts[r]), int(n[r])
                kept = set()
                for q in range(start, start + fanout):
                    v = picks[q]
                    if v in kept:
                        v = picks[q] = pop - fanout + q - start
                    kept.add(v)
        # Swap draw t of a request swaps its positions 2k - 1 - t and the
        # draw; requests are disjoint, so one flat pass keeps each order.
        shuffle = ~floyd
        base = starts[owner[shuffle]]
        for i, j in zip(
            (base + 2 * k[shuffle] - 1 - t[shuffle]).tolist(),
            (base + draws[shuffle].astype(np.int64)).tolist(),
        ):
            picks[i], picks[j] = picks[j], picks[i]
        return picks


@dataclass(frozen=True)
class ZipfPopularity(PopularitySpec):
    """Zipfian popularity: P(key rank i) proportional to 1/i^s.

    ``s = 0.99`` is the YCSB default and the skew most KV-store papers use.
    Key ranks are permuted onto key indices so popular keys spread across
    the ring instead of clustering.
    """

    s: float = 0.99

    def __post_init__(self):
        if self.s < 0:
            raise WorkloadError(f"zipf exponent must be >= 0, got {self.s}")

    def build(
        self,
        keyspace_size: int,
        rng: np.random.Generator,
        max_fanout: Optional[int] = None,
    ) -> PopularitySampler:
        return _ZipfKeys(keyspace_size, rng, self.s)


class _ZipfKeys(PopularitySampler):
    """Zipf ranks by inverse CDF, a block of uniforms per rejection round.

    ``_perm[rank]`` is the key index of popularity rank ``rank`` (0 is
    the hottest).
    """

    def __init__(self, keyspace_size: int, rng: np.random.Generator, s: float):
        super().__init__(keyspace_size, rng)
        ranks = np.arange(1, keyspace_size + 1, dtype=np.float64)
        weights = ranks ** (-s)
        self._cum = np.cumsum(weights / weights.sum())
        self._cum[-1] = 1.0  # guard against floating-point shortfall
        # One-time permutation on the raw generator, *before* the
        # batched wrapper prefetches anything from the stream.
        self._perm = rng.permutation(keyspace_size)
        self._stream = as_batched(rng)

    def _candidates(self, k: int) -> List[int]:
        ranks = np.searchsorted(self._cum, self._stream.random_block(k), side="left")
        np.minimum(ranks, self.keyspace_size - 1, out=ranks)
        return self._perm[ranks].tolist()


@dataclass(frozen=True)
class PartitionedPopularity(PopularitySpec):
    """One tenant's slice of a partitioned keyspace.

    Multi-tenant key spaces: the keyspace is split into ``tenants``
    contiguous equal slices and this spec confines an ``inner``
    popularity law to slice ``tenant`` (inner indices are drawn over the
    slice span and offset into place).  Tenants therefore never share
    keys — the fleet-scale X5 setting where no single client's traffic
    covers the whole fleet.
    """

    inner: PopularitySpec
    tenant: int
    tenants: int

    def __post_init__(self):
        if self.tenants < 1:
            raise WorkloadError(f"tenants must be >= 1, got {self.tenants}")
        if not 0 <= self.tenant < self.tenants:
            raise WorkloadError(
                f"tenant must be in [0, {self.tenants}), got {self.tenant}"
            )

    def build(
        self,
        keyspace_size: int,
        rng: np.random.Generator,
        max_fanout: Optional[int] = None,
    ) -> PopularitySampler:
        span = keyspace_size // self.tenants
        if span < 1:
            raise WorkloadError(
                f"keyspace of {keyspace_size} cannot be split into "
                f"{self.tenants} tenant slices"
            )
        return _TenantKeys(
            keyspace_size,
            rng,
            self.inner.build(span, rng, max_fanout),
            self.tenant * span,
        )


class _TenantKeys(PopularitySampler):
    """Offsets an inner sampler's draws into this tenant's slice."""

    def __init__(
        self,
        keyspace_size: int,
        rng: np.random.Generator,
        inner: PopularitySampler,
        offset: int,
    ):
        super().__init__(keyspace_size, rng)
        self._inner = inner
        self._offset = offset

    # Distinctness within the slice is distinctness globally (slices are
    # disjoint), so the inner draw carries the whole guarantee.
    def sample_block(self, counts) -> List[int]:
        offset = self._offset
        return [offset + i for i in self._inner.sample_block(counts)]


@dataclass(frozen=True)
class HotspotPopularity(PopularitySpec):
    """A ``hot_fraction`` of keys receives ``hot_probability`` of accesses.

    The classic YCSB "hotspot" distribution: uniform within each of the hot
    and cold regions.
    """

    hot_fraction: float = 0.1
    hot_probability: float = 0.9

    def __post_init__(self):
        if not 0 < self.hot_fraction < 1:
            raise WorkloadError("hot_fraction must be in (0, 1)")
        if not 0 < self.hot_probability < 1:
            raise WorkloadError("hot_probability must be in (0, 1)")

    def build(
        self,
        keyspace_size: int,
        rng: np.random.Generator,
        max_fanout: Optional[int] = None,
    ) -> PopularitySampler:
        return _HotspotKeys(
            keyspace_size, rng, self.hot_fraction, self.hot_probability
        )


class _HotspotKeys(PopularitySampler):
    def __init__(
        self,
        keyspace_size: int,
        rng: np.random.Generator,
        hot_fraction: float,
        hot_probability: float,
    ):
        super().__init__(keyspace_size, rng)
        self._hot_count = max(1, int(round(keyspace_size * hot_fraction)))
        if self._hot_count >= keyspace_size:
            raise WorkloadError("hot region covers the whole keyspace")
        self._hot_probability = hot_probability
        # Spread the hot region across key indices.
        self._perm = rng.permutation(keyspace_size)

    def _candidates(self, k: int) -> List[int]:
        # SCALAR FALLBACK (no BatchedStream): each draw interleaves a
        # uniform with one of two differently-bounded integer draws on one
        # stream; per-lane prefetching would consume the bit stream in a
        # different order than these scalar calls and change the sequence.
        rng, hot, perm = self._rng, self._hot_count, self._perm
        out = []
        for _ in range(k):
            if rng.random() < self._hot_probability:
                raw = int(rng.integers(0, hot))
            else:
                raw = int(rng.integers(hot, self.keyspace_size))
            out.append(int(perm[raw]))
        return out
