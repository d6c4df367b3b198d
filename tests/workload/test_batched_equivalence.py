"""Bit-identity of the batched sampling layer vs scalar numpy draws.

The batched-draw layer (:class:`repro.sim.rand.BatchedStream`) is only
admissible because its sequences are *bit-for-bit identical* to the scalar
``numpy.random.Generator`` calls it replaced — otherwise every golden
output in the repository would shift.  These tests pin that contract per
distribution and per consuming component: each one replays the exact
scalar call sequence on a fresh generator with the same seed and demands
equality, not closeness.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.kvstore.network import UniformLatencyNetwork
from repro.kvstore.service import ServiceModel
from repro.sim.core import Environment
from repro.sim.rand import FIRST_BLOCK, BatchedStream, RawWords, as_batched
from repro.workload.arrivals import MMPPArrivals, PoissonArrivals
from repro.workload.fanout import (
    BimodalFanout,
    FixedFanout,
    GeometricFanout,
    UniformFanout,
)
from repro.workload.popularity import (
    PartitionedPopularity,
    UniformPopularity,
    ZipfPopularity,
    choice_uses_floyd,
)
from repro.workload.requests import (
    REQUEST_BLOCK,
    Keyspace,
    RequestFactory,
    RequestSpec,
)
from repro.workload.sizes import (
    BimodalSize,
    ExponentialSize,
    FixedSize,
    LognormalSize,
    ParetoSize,
    UniformSize,
)

SEED = 20260807
N = 3000


def _rng():
    return np.random.default_rng(SEED)


def _stream():
    return as_batched(_rng())


# ----------------------------------------------------------------------
# Arrivals
# ----------------------------------------------------------------------
class TestArrivalEquivalence:
    def test_poisson_matches_scalar_exponential(self):
        gap = PoissonArrivals(rate=250.0).gaps(_stream())
        reference = _rng()
        for _ in range(N):
            assert gap(0.0) == reference.exponential(1.0 / 250.0)

    def test_mmpp_matches_scalar_reference(self):
        spec = MMPPArrivals(rates=(50.0, 400.0), dwell_means=(0.05, 0.02))
        gap_fn = spec.gaps(_stream())

        # Scalar re-implementation of the process on a raw generator.
        reference = _rng()
        state = 0
        state_until = reference.exponential(spec.dwell_means[0])
        now = 0.0
        for _ in range(N):
            t, gap = now, 0.0
            while True:
                candidate = reference.exponential(1.0 / spec.rates[state])
                if t + candidate <= state_until:
                    gap += candidate
                    break
                gap += state_until - t
                t = state_until
                state = (state + 1) % len(spec.rates)
                state_until = t + reference.exponential(spec.dwell_means[state])
            assert gap_fn(now) == gap
            now += gap


# ----------------------------------------------------------------------
# Fan-out
# ----------------------------------------------------------------------
class TestFanoutEquivalence:
    """One-value draws, as the runtime load generator makes them."""

    def test_uniform_matches_scalar_integers(self):
        spec, stream = UniformFanout(lo=1, hi=16), _stream()
        reference = _rng()
        for _ in range(N):
            assert spec.draw(stream, 1)[0] == reference.integers(1, 17)

    def test_geometric_matches_scalar_geometric(self):
        spec, stream = GeometricFanout(mean_target=5.0, cap=64), _stream()
        reference = _rng()
        for _ in range(N):
            expected = min(int(reference.geometric(spec.p)), 64)
            assert spec.draw(stream, 1)[0] == expected

    def test_bimodal_matches_scalar_uniform(self):
        spec, stream = BimodalFanout(small=2, large=32, p_large=0.1), _stream()
        reference = _rng()
        for _ in range(N):
            expected = 32 if reference.random() < 0.1 else 2
            assert spec.draw(stream, 1)[0] == expected


# ----------------------------------------------------------------------
# Value sizes: each spec's block draw vs numpy's scalar calls
# ----------------------------------------------------------------------
SIZE_SPECS = [
    FixedSize(size=777),
    UniformSize(lo=128, hi=4096),
    LognormalSize(median=1024.0, sigma=1.2, cap=1 << 18),
    ParetoSize(lo=256.0, alpha=1.5, cap=1 << 20),
    # Truly heavy tails (alpha <= 1), legal since the ParetoSize fix.
    ParetoSize(lo=256.0, alpha=1.0, cap=1 << 22),
    ParetoSize(lo=256.0, alpha=0.9, cap=1 << 22),
    BimodalSize(small=512, large=262144, p_large=0.05),
    BimodalSize(small=512, large=262144, p_large=0.002),
    ExponentialSize(mean_size=1024.0, cap=1 << 22),
]


def _scalar_size(spec, gen) -> int:
    """One size of ``spec`` from numpy scalar calls on ``gen``."""
    if isinstance(spec, FixedSize):
        return spec.size
    if isinstance(spec, UniformSize):
        return int(gen.integers(spec.lo, spec.hi + 1))
    if isinstance(spec, LognormalSize):
        raw = gen.lognormal(np.log(spec.median), spec.sigma)
        return int(min(max(1.0, raw), spec.cap))
    if isinstance(spec, ParetoSize):
        return int(min(spec.lo * (1.0 - gen.random()) ** (-1.0 / spec.alpha), spec.cap))
    if isinstance(spec, BimodalSize):
        return spec.large if gen.random() < spec.p_large else spec.small
    assert isinstance(spec, ExponentialSize)
    return int(min(gen.exponential(spec.mean_size), spec.cap))


@pytest.mark.parametrize("spec", SIZE_SPECS, ids=lambda s: type(s).__name__)
def test_size_block_matches_scalar_loop(spec):
    reference = _rng()
    expected = np.asarray(
        [_scalar_size(spec, reference) for _ in range(N)], dtype=np.int64
    )
    got = spec.draw(_stream(), N)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("spec", SIZE_SPECS, ids=lambda s: type(s).__name__)
def test_size_block_split_draws_same_sequence(spec):
    """Block draws crossing a prefetch boundary stay identical."""
    one_shot = spec.draw(_stream(), N)
    split = _stream()
    parts = [spec.draw(split, n) for n in (1, 7, N - 8)]
    np.testing.assert_array_equal(np.concatenate(parts), one_shot)


# ----------------------------------------------------------------------
# Popularity: vectorized Zipf rejection vs a key-by-key scalar loop
# ----------------------------------------------------------------------
def _zipf_key(gen, cum, perm) -> int:
    """One Zipf key index from one scalar ``random()`` on ``gen``."""
    rank = min(int(np.searchsorted(cum, gen.random(), side="left")), len(cum) - 1)
    return int(perm[rank])


def _scalar_distinct(gen, cum, perm, n):
    """``n`` distinct Zipf keys drawn one scalar uniform at a time."""
    chosen, seen = [], set()
    guard, limit = 0, 1000 * n + 1000
    while len(chosen) < n:
        idx = _zipf_key(gen, cum, perm)
        if idx not in seen:
            seen.add(idx)
            chosen.append(idx)
        guard += 1
        if guard > limit:
            for idx in range(len(cum)):
                if len(chosen) == n:
                    break
                if idx not in seen:
                    seen.add(idx)
                    chosen.append(idx)
            break
    return chosen


class TestZipfEquivalence:
    @pytest.mark.parametrize("s,keyspace,fanout", [
        (0.99, 5000, 16),
        (1.4, 50, 30),       # dup-heavy: many rejections per draw
        (0.0, 1000, 8),      # uniform weights
    ])
    def test_sample_distinct_matches_scalar_rejection(self, s, keyspace, fanout):
        vectorized = ZipfPopularity(s=s).build(keyspace, _rng())
        reference = _rng()
        perm = reference.permutation(keyspace)
        for _ in range(200):
            got = vectorized.sample_block([fanout])
            assert got == _scalar_distinct(reference, vectorized._cum, perm, fanout)

    def test_sample_one_matches_scalar_searchsorted(self):
        sampler = ZipfPopularity(s=0.99).build(2000, _rng())
        reference = _rng()
        perm = reference.permutation(2000)
        expected = [_zipf_key(reference, sampler._cum, perm) for _ in range(N)]
        assert sampler.sample_block([1] * N) == expected


# ----------------------------------------------------------------------
# Network jitter and service noise
# ----------------------------------------------------------------------
class TestKvstoreEquivalence:
    def test_network_jitter_matches_scalar_exponential(self):
        net = UniformLatencyNetwork(
            Environment(), base_delay=50e-6, jitter_mean=20e-6, rng=_rng()
        )
        reference = _rng()
        for _ in range(N):
            assert net.delay(0, 1) == 50e-6 + reference.exponential(20e-6)

    def test_service_noise_matches_scalar_lognormal(self):
        model = ServiceModel(
            per_op_overhead=20e-6, byte_rate=200e6, noise_cv=0.3, rng=_rng()
        )
        reference = _rng()
        sigma2 = float(np.log(1.0 + 0.3**2))
        mu, sigma = -sigma2 / 2.0, sigma2**0.5
        for _ in range(N):
            expected = model.demand(4096) * reference.lognormal(mu, sigma)
            assert model.demand(4096) * next(model.noise) == expected


# ----------------------------------------------------------------------
# Block schedule: growing lanes, fixed integer lanes
# ----------------------------------------------------------------------
#: Integer ranges below and above 2**32: numpy draws the first through a
#: 32-bit buffer (two draws per 64-bit word), the rest from whole words.
INTEGER_RANGES = [(0, 17), (3, 2**32 - 1), (0, 2**32 + 5), (-7, 2**40)]

#: Ways to cut 1984 draws into successive fills: the growing-lane
#: schedule (64 * 2**k), and odd cuts that leave half a 64-bit word.
INTEGER_SPLITS = [
    (64, 128, 256, 512, 1024),
    (63, 65, 128, 256, 512, 960),
    (1, 127, 255, 1, 1600),
]


@pytest.mark.parametrize("low, high", INTEGER_RANGES)
@pytest.mark.parametrize("split", INTEGER_SPLITS)
def test_split_integer_fills_equal_one_fill(low, high, split):
    gen = _rng()
    got = np.concatenate([gen.integers(low, high, size=n) for n in split])
    assert got.tolist() == _rng().integers(low, high, size=sum(split)).tolist()


#: Per growing lane: one scalar draw, ``n`` block draws, and the raw
#: generator's scalar call they must reproduce.
GROWING_LANES = {
    "random": (
        lambda s: s.random(),
        lambda s, n: s.random_block(n),
        lambda g: g.random(),
    ),
    "exponential": (
        lambda s: s.exponential(2.5),
        lambda s, n: s.exponential_block(2.5, n),
        lambda g: g.exponential(2.5),
    ),
    "geometric": (
        lambda s: s.geometric(0.3),
        lambda s, n: s.geometric_block(0.3, n),
        lambda g: g.geometric(0.3),
    ),
    "lognormal": (
        lambda s: s.lognormal(0.1, 0.7),
        lambda s, n: s.lognormal_block(0.1, 0.7, n),
        lambda g: g.lognormal(0.1, 0.7),
    ),
}


@pytest.mark.parametrize("name", sorted(GROWING_LANES))
def test_growing_lane_matches_scalar_across_every_boundary(name):
    scalar, block, reference = GROWING_LANES[name]
    stream = BatchedStream(_rng(), block_size=16 * FIRST_BLOCK)
    got = [scalar(stream) for _ in range(100)]
    for n in (37, 300, 1, 999, 2500):  # reads straddle every refill
        got.extend(block(stream, n).tolist())
    raw = _rng()
    assert got == [reference(raw) for _ in range(len(got))]
    # 3937 draws: blocks of 1, 2, 4, 8 and 16 x FIRST_BLOCK, then two more
    # of the full 16.
    assert stream.blocks_filled == 7


def test_integer_lanes_keep_the_full_block():
    stream = BatchedStream(_rng(), block_size=16 * FIRST_BLOCK)
    got = [stream.integers(0, 17) for _ in range(1000)]
    got.extend(stream.integers_block(0, 17, 1500).tolist())
    raw = _rng()
    assert got == [int(raw.integers(0, 17)) for _ in range(2500)]
    assert stream.blocks_filled == 3  # 2500 draws in blocks of 1024


def test_draw_iterators_take_bits_as_scalar_calls_do():
    """Lanes read through iterators, interleaved on one generator, equal
    the same scalar calls on a twin: every refill lands on the draw that
    needs it (Dodoor's two integer bounds, a server's noise lane)."""
    stream = BatchedStream(_rng(), block_size=100)
    twin = BatchedStream(_rng(), block_size=100)
    three, two = stream.integers_draws(0, 3), stream.integers_draws(0, 2)
    noise = stream.lognormal_draws(0.0, 0.5)
    for i in range(1000):
        assert next(three) == twin.integers(0, 3)
        assert next(two) == twin.integers(0, 2)
        if i % 3 == 0:
            value = next(noise)
            assert type(value) is float
            assert value == twin.lognormal(0.0, 0.5)
    assert stream.blocks_filled == twin.blocks_filled


# ----------------------------------------------------------------------
# Fan-out blocks: one block call per refill, numpy's scalar sequence
# ----------------------------------------------------------------------
FANOUT_SPECS = [
    FixedFanout(k=6),
    UniformFanout(lo=1, hi=16),
    GeometricFanout(mean_target=5.0, cap=64),
    BimodalFanout(small=2, large=32, p_large=0.1),
]


def _scalar_fanout(spec, gen) -> int:
    """One fan-out of ``spec`` from numpy scalar calls on ``gen``."""
    if isinstance(spec, FixedFanout):
        return spec.k
    if isinstance(spec, UniformFanout):
        return int(gen.integers(spec.lo, spec.hi + 1))
    if isinstance(spec, GeometricFanout):
        return min(int(gen.geometric(spec.p)), spec.cap)
    assert isinstance(spec, BimodalFanout)
    return spec.large if gen.random() < spec.p_large else spec.small


@pytest.mark.parametrize("spec", FANOUT_SPECS, ids=lambda s: type(s).__name__)
def test_fanout_block_matches_scalar_samples(spec):
    stream = _stream()
    got = np.concatenate([spec.draw(stream, n) for n in (1, 255, 256, 700)])
    assert got.dtype == np.int64
    reference = _rng()
    assert got.tolist() == [
        _scalar_fanout(spec, reference) for _ in range(got.shape[0])
    ]


# ----------------------------------------------------------------------
# Uniform keys from raw words: Generator.choice(pop, n, replace=False)
# ----------------------------------------------------------------------
#: Populations on both sides of numpy's 10 000 Floyd limit.
CHOICE_POPS = (2, 7, 2_500, 10_000, 10_001, 20_000)


def _choice_cases():
    for pop in CHOICE_POPS:
        for cap in sorted({1, pop // 50, pop // 50 + 1, pop - 1, pop}):
            if cap >= 1:
                yield pop, cap


def _fanouts(cap, count, seed):
    """``count`` fan-outs in [1, cap], always including the cap itself."""
    fanouts = np.random.default_rng(seed).integers(1, cap + 1, size=count)
    fanouts[count // 2] = cap
    return fanouts


@pytest.mark.parametrize("pop, cap", list(_choice_cases()))
@pytest.mark.parametrize("seed", [SEED, 3, 11])
def test_uniform_keys_equal_generator_choice(pop, cap, seed):
    """Every draw equals numpy's own ``choice``, however the requests are
    split into blocks, whether or not the sampler emulates it."""
    sampler = UniformPopularity().build(pop, np.random.default_rng(seed), cap)
    assert (sampler._words is not None) == choice_uses_floyd(pop, cap)
    count = 40 if cap <= 400 else 6
    fanouts = _fanouts(cap, count, seed + 1)
    reference = np.random.default_rng(seed)
    expected = [
        reference.choice(pop, int(n), replace=False).tolist() for n in fanouts
    ]
    cuts = [0, 1, 2, count // 2, count // 2 + 1, count]
    got = []
    for a, b in zip(cuts, cuts[1:]):
        flat = sampler.sample_block(fanouts[a:b])
        for n in fanouts[a:b].tolist():
            got.append(flat[:n])
            flat = flat[n:]
        assert flat == []
    assert got == expected
    # A one-request block reads on from the same stream.
    assert sampler.sample_block([cap]) == reference.choice(
        pop, cap, replace=False
    ).tolist()


def test_floyd_branch_boundary():
    """numpy's Floyd rule: n < pop, and pop <= 10 000 or n <= pop // 50."""
    assert choice_uses_floyd(10_000, 9_999)
    assert not choice_uses_floyd(10_000, 10_000)
    assert choice_uses_floyd(10_001, 200)
    assert not choice_uses_floyd(10_001, 201)
    assert not choice_uses_floyd(20_000, 401)


def test_emulation_needs_a_known_cap_and_pcg64():
    assert UniformPopularity().build(100, _rng())._words is None
    gen = np.random.Generator(np.random.MT19937(SEED))
    assert UniformPopularity().build(100, gen, 5)._words is None


def test_fanout_above_the_cap_rejected():
    sampler = UniformPopularity().build(100, _rng(), 5)
    with pytest.raises(WorkloadError, match="above the cap 5"):
        sampler.sample_block([2, 6])


def _words_of(gen, n_raw):
    raw = gen.bit_generator.random_raw(n_raw)
    words = np.empty(2 * n_raw, dtype=np.uint64)
    words[0::2] = raw & np.uint64(0xFFFFFFFF)
    words[1::2] = raw >> np.uint64(32)
    return words


def test_rejected_draw_at_choice_bound_matches_numpy():
    """A Lemire rejection inside a key draw, against numpy itself.

    At bound 10 000 a word is rejected about twice per million draws, so
    no seeded run meets one.  Scan a stream for such a word, start a
    generator just before it, and draw a request whose first Floyd draw
    reads it.  An odd word position also exercises the half-word numpy
    leaves waiting in the bit generator's state.
    """
    pop = 10_000
    seed = 11  # its first 2**21 words hold two odd and two even rejections
    words = _words_of(np.random.default_rng(seed), 1 << 20)
    rejected = (words * np.uint64(pop)) & np.uint64(0xFFFFFFFF) < np.uint64(
        ((1 << 32) - pop) % pop
    )
    positions = np.flatnonzero(rejected).tolist()
    assert {p % 2 for p in positions} == {0, 1}
    for position in positions:
        fresh = []
        for _ in range(2):
            gen = np.random.default_rng(seed)
            gen.bit_generator.advance(position // 2)
            if position % 2:
                gen.integers(0, 2)  # one word; the high half waits
            fresh.append(gen)
        reference, emulated = fresh
        sampler = UniformPopularity().build(pop, emulated, 64)
        fanouts = [1, 5, 64, 3]
        expected = []
        for n in fanouts:
            expected.extend(reference.choice(pop, n, replace=False).tolist())
        assert sampler.sample_block(fanouts) == expected


def test_waiting_half_word_is_read_first():
    """A stream numpy left with a half-word waiting starts with it."""
    reference, emulated = _rng(), _rng()
    for gen in (reference, emulated):
        gen.integers(0, 2)
    sampler = UniformPopularity().build(10_000, emulated, 8)
    expected = reference.choice(10_000, 8, replace=False).tolist()
    assert sampler.sample_block([8]) == expected
    assert not emulated.bit_generator.state["has_uint32"]


def test_rejections_match_numpy_bounded_integers():
    """At bound 2**31 + 1 about half the words are rejected."""
    bound = (1 << 31) + 1
    got = RawWords(_rng()).bounded(np.full(2000, bound))
    assert got.tolist() == _rng().integers(0, bound, size=2000).tolist()
    bounds = np.tile([bound, 7, 10_000, 2], 300)
    raw = _rng()
    expected = [int(raw.integers(0, int(b))) for b in bounds]
    assert RawWords(_rng()).bounded(bounds).tolist() == expected


def test_crafted_rejections_take_the_next_word():
    """A crafted word source: each rejected word is skipped, in order.

    Bound 3 rejects a word ``w`` with ``3w mod 2**32 < 1`` and bound 10
    one with ``10w mod 2**32 < 6``; ``0`` is rejected by both.
    """
    top = 0xFFFFFFFF
    words = [0, top, 0, 0, 0x80000001, 0, 0x55555556, top]
    raw = np.asarray(
        [words[i] | (words[i + 1] << 32) for i in range(0, len(words), 2)],
        dtype=np.uint64,
    )
    taken = []

    def fill(k):
        start = sum(taken)
        taken.append(k)
        return raw[start : start + k]

    got = RawWords(None, fill=fill).bounded(np.asarray([3, 10, 3, 10]))
    # (3 * top) >> 32 = 2; 10 * 0x80000001 = 5 * 2**32 + 10;
    # 3 * 0x55555556 = 2**32 + 2; (10 * top) >> 32 = 9.
    assert got.tolist() == [2, 5, 1, 9]
    assert sum(taken) == len(raw)  # every word read, none to spare


def test_partitioned_keys_are_inner_draws_plus_offset():
    spec = PartitionedPopularity(UniformPopularity(), tenant=2, tenants=4)
    sampler = spec.build(10_000, _rng(), 64)
    assert sampler._inner._words is not None
    fanouts = _fanouts(64, 300, 5)
    reference = np.random.default_rng(SEED)
    expected = []
    for n in fanouts:
        expected.extend((5_000 + reference.choice(2_500, n, replace=False)).tolist())
    assert sampler.sample_block(fanouts[:100]) + sampler.sample_block(
        fanouts[100:]
    ) == expected


def test_request_factory_blocks_match_per_request_draws():
    """Across block boundaries the factory hands out exactly what one
    draw per request per stream gives."""
    spec = RequestSpec(
        arrivals=PoissonArrivals(rate=100.0),
        fanout=GeometricFanout(mean_target=5.0, cap=64),
        popularity=UniformPopularity(),
        put_fraction=0.3,
    )
    keyspace = Keyspace(10_000, FixedSize(size=100), np.random.default_rng(0))
    streams = [np.random.default_rng(s) for s in (1, 2, 3, 4)]
    factory = RequestFactory(spec, keyspace, *streams)
    fanouts = np.random.default_rng(2)
    keys = np.random.default_rng(3)
    kind = np.random.default_rng(4)
    for _ in range(2 * REQUEST_BLOCK + 7):
        n = min(int(fanouts.geometric(spec.fanout.p)), 64)
        got_keys, got_puts, sizes = factory.next_request()
        assert got_keys == keys.choice(10_000, n, replace=False).tolist()
        assert got_puts == [kind.random() < 0.3 for _ in range(n)]
        assert sizes is None


def test_loadgen_key_sequence_unchanged():
    """The runtime load generator keeps calling ``Generator.choice``."""
    from repro.runtime.loadgen import LoadGenerator

    names = [f"k{i}" for i in range(500)]
    fanout = UniformFanout(lo=1, hi=8)
    gen = LoadGenerator(
        None, names, arrivals=PoissonArrivals(rate=10.0), fanout=fanout,
        popularity=UniformPopularity(), seed=9,
    )
    fanouts = np.random.default_rng(10)
    keys = np.random.default_rng(11)
    for _ in range(300):
        got = gen._next_keys()
        n = len(got)
        assert n == fanouts.integers(1, 9)
        assert got == [
            names[i] for i in keys.choice(500, n, replace=False).tolist()
        ]


@pytest.mark.parametrize("tenants", [1, 4])
def test_cluster_leaves_key_streams_untouched(tenants):
    """The first key block is drawn at the first arrival, not at set-up."""
    from repro.kvstore.cluster import Cluster
    from repro.sim.rand import RandomStreams

    from tests.conftest import small_config

    config = small_config(n_clients=4, tenants=tenants, keyspace_size=400)
    cluster = Cluster(config)
    fresh = RandomStreams(config.seed)
    for cid in range(config.n_clients):
        name = f"keys/{cid}"
        assert (
            cluster.streams.stream(name).bit_generator.state
            == fresh.stream(name).bit_generator.state
        )
