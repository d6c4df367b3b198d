"""Seeded random-number streams and the batched-draw sampling layer.

Every stochastic component of an experiment (arrivals, key choice, value
sizes, network jitter, ...) draws from its own independent stream derived
from a single root seed.  Two runs with the same root seed are bit-for-bit
identical, and changing one component's draw count never perturbs another
component's sequence.

:class:`BatchedStream` is the performance layer on top: it prefetches
blocks of draws per (distribution, params) lane and serves scalars from a
cursor, cutting the per-draw cost of ``numpy.random.Generator`` scalar
calls by roughly an order of magnitude.  Batching is only admissible
because it is *bit-identical* to the scalar calls it replaces — see the
class docstring for the exact contract and
``tests/workload/test_batched_equivalence.py`` for the per-distribution
proofs.
"""

from __future__ import annotations

from typing import Dict, Tuple, Union

import numpy as np

#: spawn_key suffix marking child-family derivation.  Outside the 0-255
#: byte range, so a spawned family can never collide with a stream name.
_SPAWN_MARK = 1 << 20


class RandomStreams:
    """A family of independent, named ``numpy.random.Generator`` streams.

    Parameters
    ----------
    root_seed:
        Root of the seed tree.  Streams are derived deterministically from
        ``(root_seed, name)`` so stream identity is stable across runs and
        across creation order.

    Example
    -------
    >>> streams = RandomStreams(42)
    >>> a = streams.stream("arrivals")
    >>> b = streams.stream("keys")
    >>> a is streams.stream("arrivals")
    True
    """

    def __init__(self, root_seed: int = 0):
        if root_seed < 0:
            raise ValueError("root_seed must be non-negative")
        self.root_seed = int(root_seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        gen = self._streams.get(name)
        if gen is None:
            # Derive child entropy from the name so ordering is irrelevant.
            digest = np.frombuffer(name.encode("utf-8"), dtype=np.uint8)
            spawn_key = tuple(int(b) for b in digest)
            seq = np.random.SeedSequence(self.root_seed, spawn_key=spawn_key)
            gen = np.random.default_rng(seq)
            self._streams[name] = gen
        return gen

    def spawn(self, name: str) -> "RandomStreams":
        """Derive a child family, e.g. one per simulated client.

        The child's root seed is a full 64-bit ``SeedSequence`` derivation
        of ``(root_seed, name)``.  (Earlier versions derived it from a
        single 31-bit ``integers()`` draw, which made birthday collisions
        between sibling families likely beyond a few tens of thousands of
        spawns; the fix changes the seeds ``spawn`` hands out — see
        ``docs/benchmarking.md`` "Determinism guarantees".)
        """
        spawn_key = tuple(name.encode("utf-8")) + (_SPAWN_MARK,)
        seq = np.random.SeedSequence(self.root_seed, spawn_key=spawn_key)
        child_seed = int(seq.generate_state(1, np.uint64)[0])
        return RandomStreams(child_seed)

    def names(self) -> list[str]:
        """Names of streams created so far (for diagnostics)."""
        return sorted(self._streams)

    def __repr__(self) -> str:
        return f"RandomStreams(root_seed={self.root_seed}, streams={len(self._streams)})"


#: Lane key: distribution tag plus the parameters that select the block.
_LaneKey = Union[str, Tuple]

#: First block of a growing lane; each refill doubles it up to
#: ``BatchedStream.block_size``.
FIRST_BLOCK = 64


class BatchedStream:
    """Block-prefetching façade over one ``numpy.random.Generator``.

    Draws are served from prefetched arrays ("lanes"), one lane per
    (distribution, bit-stream-relevant params):

    ========================  =======================================
    method                    lane / block drawn
    ========================  =======================================
    ``random``                ``gen.random(block)``
    ``exponential(scale)``    ``gen.standard_exponential(block)``
                              (scaled on the way out — numpy's scalar
                              ``exponential(scale)`` is exactly
                              ``scale * standard_exponential()``, so
                              one lane serves every scale)
    ``integers(lo, hi)``      ``gen.integers(lo, hi, size=block)``
    ``geometric(p)``          ``gen.geometric(p, size=block)``
    ``lognormal(m, s)``       ``gen.lognormal(m, s, size=block)``
    ========================  =======================================

    **Determinism contract.**  For every supported distribution, numpy
    fills arrays by repeated calls to the same per-element routine the
    scalar path uses, so a batched sequence is bit-identical to the scalar
    sequence from the same generator state (pinned per distribution by
    ``tests/workload/test_batched_equivalence.py``).  What batching *does*
    change is the interleaving of the underlying bit stream **across
    lanes**: a component that alternates distributions (or integer bounds)
    on one stream would consume bits in a different order than its scalar
    version.  Such components must keep scalar draws on the raw generator
    — the sinusoidal arrival sampler and the hotspot popularity sampler do
    exactly that (flagged at their call sites) — or tolerate a new
    sequence.  Components that draw a single distribution per stream (the
    repository norm; see ``RandomStreams``) get batching for free with
    experiment outputs unchanged.

    **Block schedule.**  Every lane but ``integers`` starts at
    :data:`FIRST_BLOCK` draws and doubles per refill up to ``block_size``:
    its array fill is element by element, so where a block ends cannot
    move the sequence, and a lightly used stream (one server's service
    noise in a large fleet) does not hold ``block_size`` values it never
    reads.  ``integers`` lanes always fill ``block_size``.  Not for their
    own sequence: a bounded-integer fill split anywhere equals one fill
    (pinned by the equivalence tests).  For the interleaving: power-of-d
    and Dodoor draw two integer bounds from one stream, so the order in
    which their two lanes take bits is set by where each lane's blocks
    end, and growing these lanes would change their decisions.

    A generator must be wrapped at most once: two live wrappers over the
    same generator would each prefetch from the shared bit stream and
    interleave unpredictably.  Use :func:`as_batched` at the single
    ownership point of each stream.
    """

    __slots__ = ("gen", "block_size", "_lanes", "blocks_filled")

    def __init__(self, gen: np.random.Generator, block_size: int = 4096):
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self.gen = gen
        self.block_size = block_size
        #: lane key -> [buffer ndarray, cursor]
        self._lanes: Dict[_LaneKey, list] = {}
        self.blocks_filled = 0

    def _refill(self, key: _LaneKey, lane, fill, grow: bool = True) -> list:
        """Start lane ``key`` (``lane`` is None) or replace its spent block.

        A growing lane starts at :data:`FIRST_BLOCK` draws and doubles on
        each refill up to ``block_size``, so a stream that is drawn from a
        hundred times holds a few hundred values, not ``block_size``.
        """
        if not grow:
            size = self.block_size
        elif lane is None:
            size = min(FIRST_BLOCK, self.block_size)
        else:
            size = min(2 * lane[0].shape[0], self.block_size)
        lane = [fill(size), 0]
        self._lanes[key] = lane
        self.blocks_filled += 1
        return lane

    # -- scalar draws ---------------------------------------------------
    def random(self) -> float:
        """Next uniform double in [0, 1)."""
        lane = self._lanes.get("u")
        if lane is None or lane[1] >= lane[0].shape[0]:
            lane = self._refill("u", lane, self.gen.random)
        i = lane[1]
        lane[1] = i + 1
        return lane[0].item(i)

    def exponential(self, scale: float) -> float:
        """Next Exp(scale) draw; all scales share one std-exp lane."""
        lane = self._lanes.get("e")
        if lane is None or lane[1] >= lane[0].shape[0]:
            lane = self._refill("e", lane, self.gen.standard_exponential)
        i = lane[1]
        lane[1] = i + 1
        return scale * lane[0].item(i)

    def integers(self, low: int, high: int) -> int:
        """Next integer in [low, high) — numpy half-open convention."""
        key = ("i", low, high)
        lane = self._lanes.get(key)
        if lane is None or lane[1] >= lane[0].shape[0]:
            lane = self._refill(
                key, lane, lambda b: self.gen.integers(low, high, size=b), grow=False
            )
        i = lane[1]
        lane[1] = i + 1
        return lane[0].item(i)

    def geometric(self, p: float) -> int:
        """Next Geometric(p) draw on {1, 2, ...}."""
        key = ("g", p)
        lane = self._lanes.get(key)
        if lane is None or lane[1] >= lane[0].shape[0]:
            lane = self._refill(key, lane, lambda b: self.gen.geometric(p, size=b))
        i = lane[1]
        lane[1] = i + 1
        return lane[0].item(i)

    def lognormal(self, mean: float, sigma: float) -> float:
        """Next LogNormal(mean, sigma) draw.

        Lanes are keyed by (mean, sigma): numpy's array fill is
        bit-identical to the scalar loop, but reconstructing from a
        standard-normal lane (``exp(mean + sigma*z)``) is *not* — the
        vectorized ``exp`` rounds differently — so the parameters stay in
        the lane key rather than being applied on the way out.
        """
        key = ("ln", mean, sigma)
        lane = self._lanes.get(key)
        if lane is None or lane[1] >= lane[0].shape[0]:
            lane = self._refill(
                key, lane, lambda b: self.gen.lognormal(mean, sigma, size=b)
            )
        i = lane[1]
        lane[1] = i + 1
        return lane[0].item(i)

    # -- block draws (same lanes, same sequence) ------------------------
    def _take_block(
        self, key: _LaneKey, n: int, fill, grow: bool = True
    ) -> np.ndarray:
        """``n`` draws from a lane, exactly as ``n`` scalar calls would."""
        lane = self._lanes.get(key)
        if lane is None:
            lane = self._refill(key, None, fill, grow)
        out = np.empty(n, dtype=lane[0].dtype)
        filled = 0
        while filled < n:
            if lane[1] >= lane[0].shape[0]:
                lane = self._refill(key, lane, fill, grow)
            buf, cur = lane
            take = min(n - filled, buf.shape[0] - cur)
            out[filled : filled + take] = buf[cur : cur + take]
            lane[1] = cur + take
            filled += take
        return out

    def random_block(self, n: int) -> np.ndarray:
        """``n`` uniforms, identical to ``n`` successive :meth:`random`."""
        return self._take_block("u", n, self.gen.random)

    def exponential_block(self, scale: float, n: int) -> np.ndarray:
        """``n`` Exp(scale) draws from the shared std-exp lane."""
        return scale * self._take_block("e", n, self.gen.standard_exponential)

    def integers_block(self, low: int, high: int, n: int) -> np.ndarray:
        """``n`` integers in [low, high)."""
        return self._take_block(
            ("i", low, high),
            n,
            lambda b: self.gen.integers(low, high, size=b),
            grow=False,
        )

    def geometric_block(self, p: float, n: int) -> np.ndarray:
        """``n`` Geometric(p) draws."""
        return self._take_block(
            ("g", p), n, lambda b: self.gen.geometric(p, size=b)
        )

    def lognormal_block(self, mean: float, sigma: float, n: int) -> np.ndarray:
        """``n`` LogNormal(mean, sigma) draws."""
        return self._take_block(
            ("ln", mean, sigma), n, lambda b: self.gen.lognormal(mean, sigma, size=b)
        )

    def __repr__(self) -> str:
        return (
            f"BatchedStream(block={self.block_size}, lanes={len(self._lanes)}, "
            f"blocks_filled={self.blocks_filled})"
        )


def as_batched(
    rng: Union[np.random.Generator, BatchedStream], block_size: int = 4096
) -> BatchedStream:
    """Wrap ``rng`` in a :class:`BatchedStream` (idempotent).

    The caller must be the stream's sole consumer from this point on — see
    the :class:`BatchedStream` single-wrapper rule.
    """
    if isinstance(rng, BatchedStream):
        return rng
    return BatchedStream(rng, block_size=block_size)
