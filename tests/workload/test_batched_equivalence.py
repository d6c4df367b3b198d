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

from repro.kvstore.network import UniformLatencyNetwork
from repro.kvstore.service import ServiceModel
from repro.sim.core import Environment
from repro.sim.rand import FIRST_BLOCK, BatchedStream
from repro.workload.arrivals import MMPPArrivals, PoissonArrivals
from repro.workload.fanout import BimodalFanout, GeometricFanout, UniformFanout
from repro.workload.popularity import PopularitySampler, ZipfPopularity
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


# ----------------------------------------------------------------------
# Arrivals
# ----------------------------------------------------------------------
class TestArrivalEquivalence:
    def test_poisson_matches_scalar_exponential(self):
        sampler = PoissonArrivals(rate=250.0).build(_rng())
        reference = _rng()
        for _ in range(N):
            assert sampler.next_interarrival(0.0) == reference.exponential(1.0 / 250.0)

    def test_mmpp_matches_scalar_reference(self):
        spec = MMPPArrivals(rates=(50.0, 400.0), dwell_means=(0.05, 0.02))
        sampler = spec.build(_rng())

        # Scalar re-implementation of the sampler on a raw generator.
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
            assert sampler.next_interarrival(now) == gap
            now += gap


# ----------------------------------------------------------------------
# Fan-out
# ----------------------------------------------------------------------
class TestFanoutEquivalence:
    def test_uniform_matches_scalar_integers(self):
        sampler = UniformFanout(lo=1, hi=16).build(_rng())
        reference = _rng()
        for _ in range(N):
            assert sampler.sample() == reference.integers(1, 17)

    def test_geometric_matches_scalar_geometric(self):
        spec = GeometricFanout(mean_target=5.0, cap=64)
        sampler = spec.build(_rng())
        reference = _rng()
        for _ in range(N):
            assert sampler.sample() == min(int(reference.geometric(spec.p)), 64)

    def test_bimodal_matches_scalar_uniform(self):
        sampler = BimodalFanout(small=2, large=32, p_large=0.1).build(_rng())
        reference = _rng()
        for _ in range(N):
            expected = 32 if reference.random() < 0.1 else 2
            assert sampler.sample() == expected


# ----------------------------------------------------------------------
# Value sizes: each sampler's vectorized sample_block vs its scalar sample
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


@pytest.mark.parametrize("spec", SIZE_SPECS, ids=lambda s: type(s).__name__)
def test_size_block_matches_scalar_loop(spec):
    scalar = spec.build(_rng())
    block = spec.build(_rng())
    expected = np.asarray([scalar.sample() for _ in range(N)], dtype=np.int64)
    got = block.sample_block(N)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("spec", SIZE_SPECS, ids=lambda s: type(s).__name__)
def test_size_block_split_draws_same_sequence(spec):
    """Block draws crossing a prefetch boundary stay identical."""
    one_shot = spec.build(_rng()).sample_block(N)
    split = spec.build(_rng())
    parts = [split.sample_block(n) for n in (1, 7, N - 8)]
    np.testing.assert_array_equal(np.concatenate(parts), one_shot)


# ----------------------------------------------------------------------
# Popularity: vectorized Zipf rejection vs the scalar base-class loop
# ----------------------------------------------------------------------
class TestZipfEquivalence:
    @pytest.mark.parametrize("s,keyspace,fanout", [
        (0.99, 5000, 16),
        (1.4, 50, 30),       # dup-heavy: many rejections per draw
        (0.0, 1000, 8),      # uniform weights
    ])
    def test_sample_distinct_matches_scalar_rejection(self, s, keyspace, fanout):
        spec = ZipfPopularity(s=s, shuffle=True)
        vectorized = spec.build(keyspace, _rng())
        scalar = spec.build(keyspace, _rng())
        for _ in range(200):
            got = vectorized.sample_distinct(fanout)
            # The unbound base-class method is the scalar rejection loop.
            expected = PopularitySampler.sample_distinct(scalar, fanout)
            np.testing.assert_array_equal(got, expected)

    def test_sample_one_matches_scalar_searchsorted(self):
        spec = ZipfPopularity(s=0.99, shuffle=True)
        sampler = spec.build(2000, _rng())
        reference = _rng()
        perm = reference.permutation(2000)
        for _ in range(N):
            u = reference.random()
            rank = min(int(np.searchsorted(sampler._cum, u, side="left")), 1999)
            assert sampler.sample_one() == int(perm[rank])


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
            assert model.sample_service_time(4096, now=0.0) == expected


# ----------------------------------------------------------------------
# Block schedule: growing lanes, fixed integer lanes
# ----------------------------------------------------------------------
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
