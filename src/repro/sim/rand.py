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

:class:`RawWords` goes one level lower, for draws numpy has no array
form of: it serves a PCG64 generator's ``next_uint32`` words from
``bit_generator.random_raw`` blocks and turns them into Lemire-bounded
integers, vectorised across a block.  The uniform key sampler builds
``Generator.choice(pop, n, replace=False)`` on it, bit for bit.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Dict, Iterator, Tuple, Union

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
    — the hotspot popularity sampler does exactly that (flagged at its
    call site) — or tolerate a new sequence.  Components that draw a
    single distribution per stream (the repository norm; see
    ``RandomStreams``) get batching for free with experiment outputs
    unchanged.

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

    # -- draw iterators (same lanes, same sequence) ---------------------
    def _lane_draws(
        self, key: _LaneKey, fill, grow: bool, convert: Callable
    ) -> Iterator:
        """Endless iterator over lane ``key``'s draws, as Python scalars.

        Python runs once per block, not once per draw: the lane refills
        exactly when the next draw needs it (as a scalar call would) and
        hands its whole block over, so the iterator owns the lane from
        its first draw on.
        """

        def blocks():
            lane = self._lanes.get(key)
            while True:
                if lane is None or lane[1] >= lane[0].shape[0]:
                    lane = self._refill(key, lane, fill, grow)
                buf, cur = lane
                lane[1] = buf.shape[0]
                yield buf[cur:]

        return map(convert, chain.from_iterable(blocks()))

    def lognormal_draws(self, mean: float, sigma: float) -> Iterator[float]:
        """``next()`` gives what successive :meth:`lognormal` calls would."""
        return self._lane_draws(
            ("ln", mean, sigma),
            lambda b: self.gen.lognormal(mean, sigma, size=b),
            True,
            float,
        )

    def integers_draws(self, low: int, high: int) -> Iterator[int]:
        """``next()`` gives what successive :meth:`integers` calls would."""
        return self._lane_draws(
            ("i", low, high),
            lambda b: self.gen.integers(low, high, size=b),
            False,
            int,
        )

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


_MASK32 = np.uint64(0xFFFFFFFF)
_TWO32 = np.uint64(1 << 32)


class RawWords:
    """A PCG64 generator's ``next_uint32`` stream, read in blocks.

    **Word order.**  numpy's PCG64 makes 32-bit words from 64-bit outputs
    low half first, then high half; an unused high half waits in the bit
    generator's state (``has_uint32`` / ``uinteger``).  ``random_raw``
    hands out whole 64-bit outputs and ignores that half, so the first
    read takes a waiting half, if any, before any fresh word, and from
    then on every output is split low, high.  Prefetched words live here:
    the generator must have no other consumer once reading starts.

    **Bounded draws.**  :meth:`bounded` is numpy's unbuffered Lemire
    method (``random_bounded_uint64`` with a range below ``2**32 - 1``):
    for a bound ``b`` it takes a word ``w``, forms ``m = w * b``, rejects
    while ``m mod 2**32 < (2**32 - b) mod b``, and returns ``m >> 32``.
    The multiply and shift run on a whole array of bounds; Python runs
    only for a rejection (under ``b / 2**32`` per draw), after which the
    rest of the array is redone one word later.

    ``fill(k)`` returns ``k`` raw 64-bit outputs; it defaults to the
    generator's ``random_raw`` and is injectable so the rejection path
    can be tested with crafted words.
    """

    __slots__ = ("_gen", "_fill", "_words", "_pos")

    def __init__(self, gen: np.random.Generator, fill=None):
        self._gen = gen
        self._fill = fill
        #: Unread 32-bit words, as uint64 so ``w * b`` cannot overflow;
        #: None until the first read.
        self._words = None
        self._pos = 0

    def _start(self) -> np.ndarray:
        """First read: adopt the generator's waiting half-word, if any."""
        if self._fill is not None:
            return np.empty(0, dtype=np.uint64)
        bitgen = self._gen.bit_generator
        self._fill = bitgen.random_raw
        state = bitgen.state
        if not state.get("has_uint32"):
            return np.empty(0, dtype=np.uint64)
        waiting = state["uinteger"]
        state["has_uint32"] = 0
        state["uinteger"] = 0
        bitgen.state = state
        return np.asarray([waiting], dtype=np.uint64)

    def _take(self, n: int) -> np.ndarray:
        """The next ``n`` words (a view; advances the cursor)."""
        pos = self._pos
        words = self._words
        if words is None or words.shape[0] - pos < n:
            head = self._start() if words is None else words[pos:]
            raw = np.asarray(
                self._fill((n - head.shape[0] + 1) // 2), dtype=np.uint64
            )
            fresh = np.empty(2 * raw.shape[0], dtype=np.uint64)
            fresh[0::2] = raw & _MASK32
            fresh[1::2] = raw >> np.uint64(32)
            words = self._words = np.concatenate((head, fresh))
            pos = 0
        self._pos = pos + n
        return words[pos : pos + n]

    def bounded(self, bounds: np.ndarray) -> np.ndarray:
        """One draw in ``[0, b)`` per bound, in order.

        Needs ``2 <= b < 2**32``: numpy takes no word at all for
        ``b = 1``, and a plain word for ``b = 2**32``.
        """
        bounds = np.asarray(bounds, dtype=np.uint64)
        thresholds = (_TWO32 - bounds) % bounds
        n = bounds.shape[0]
        out = np.empty(n, dtype=np.uint64)
        done = 0
        while done < n:
            m = self._take(n - done) * bounds[done:]
            rejected = (m & _MASK32) < thresholds[done:]
            if not rejected.any():
                out[done:] = m >> np.uint64(32)
                break
            r = int(rejected.argmax())
            out[done : done + r] = m[:r] >> np.uint64(32)
            # Give back the words after the rejected one, then redraw it.
            self._pos -= n - done - r - 1
            b = int(bounds[done + r])
            threshold = int(thresholds[done + r])
            while True:
                m1 = int(self._take(1)[0]) * b
                if m1 & 0xFFFFFFFF >= threshold:
                    break
            out[done + r] = m1 >> 32
            done += r + 1
        return out
