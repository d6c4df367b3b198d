"""Tests for key popularity distributions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workload.popularity import (
    HotspotPopularity,
    PartitionedPopularity,
    UniformPopularity,
    ZipfPopularity,
)


def singles(sampler, n):
    """``n`` one-key requests' keys."""
    return np.asarray(sampler.sample_block([1] * n))


def ranks(sampler, indices):
    """Zipf popularity ranks (0 = hottest) of drawn key indices."""
    return np.argsort(sampler._perm)[indices]


class TestUniform:
    def test_coverage(self, rng):
        sampler = UniformPopularity().build(100, rng)
        seen = set(singles(sampler, 5000).tolist())
        assert len(seen) > 95

    def test_distinct_sampling(self, rng):
        sampler = UniformPopularity().build(50, rng)
        picks = sampler.sample_block([50])
        assert sorted(picks) == list(range(50))

    def test_too_many_distinct_rejected(self, rng):
        sampler = UniformPopularity().build(10, rng)
        with pytest.raises(WorkloadError):
            sampler.sample_block([11])


class TestZipf:
    def test_skew_concentrates_mass(self, rng):
        sampler = ZipfPopularity(s=0.99).build(1000, rng)
        draws = ranks(sampler, singles(sampler, 20000))
        top_fraction = np.mean(draws < 10)  # 10 hottest ranks
        assert top_fraction > 0.3  # heavy concentration vs 1% for uniform

    def test_zero_exponent_is_uniform(self, rng):
        sampler = ZipfPopularity(s=0.0).build(100, rng)
        draws = ranks(sampler, singles(sampler, 20000))
        top_fraction = np.mean(draws < 10)
        assert top_fraction == pytest.approx(0.1, abs=0.02)

    def test_shuffle_spreads_hot_ranks(self, rng):
        plain = ZipfPopularity(s=1.2).build(1000, rng)
        hot_plain = int(ranks(plain, singles(plain, 1))[0])
        # Ranks are permuted onto indices: rank 0 maps to an arbitrary
        # index; sampling still works and stays in range.
        shuffled = ZipfPopularity(s=1.2).build(1000, np.random.default_rng(0))
        assert sorted(shuffled._perm.tolist()) == list(range(1000))
        assert 0 <= singles(shuffled, 1)[0] < 1000
        assert 0 <= hot_plain < 1000

    def test_negative_exponent_rejected(self):
        with pytest.raises(WorkloadError):
            ZipfPopularity(s=-0.1)

    def test_distinct_under_skew(self, rng):
        sampler = ZipfPopularity(s=1.5).build(100, rng)
        picks = sampler.sample_block([20])
        assert len(set(picks)) == 20


class TestHotspot:
    def test_hot_region_receives_hot_probability(self):
        rng = np.random.default_rng(5)
        spec = HotspotPopularity(hot_fraction=0.1, hot_probability=0.9)
        sampler = spec.build(1000, rng)
        hot_indices = set(sampler._perm[:100])
        draws = singles(sampler, 20000).tolist()
        hot_hits = sum(1 for d in draws if d in hot_indices)
        assert hot_hits / len(draws) == pytest.approx(0.9, abs=0.02)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            HotspotPopularity(hot_fraction=0.0)
        with pytest.raises(WorkloadError):
            HotspotPopularity(hot_probability=1.0)

    def test_tiny_keyspace_rejected_when_hot_covers_all(self, rng):
        with pytest.raises(WorkloadError):
            HotspotPopularity(hot_fraction=0.99).build(1, rng)


class TestPartitioned:
    def test_slices_are_disjoint_and_cover_span(self, rng):
        tenants = 4
        keyspace = 100
        spans = []
        for tenant in range(tenants):
            spec = PartitionedPopularity(UniformPopularity(), tenant, tenants)
            sampler = spec.build(keyspace, np.random.default_rng(tenant))
            draws = set(singles(sampler, 2000).tolist())
            lo, hi = tenant * 25, (tenant + 1) * 25
            assert all(lo <= d < hi for d in draws), (tenant, min(draws), max(draws))
            assert len(draws) == 25  # uniform inner law covers its slice
            spans.append(draws)
        for i in range(tenants):
            for j in range(i + 1, tenants):
                assert not spans[i] & spans[j]

    def test_inner_law_is_preserved(self):
        spec = PartitionedPopularity(ZipfPopularity(s=1.2), tenant=1, tenants=2)
        sampler = spec.build(1000, np.random.default_rng(3))
        draws = singles(sampler, 20000)
        assert draws.min() >= 500
        # Ranked through the inner zipf's permutation, the hot ranks sit
        # at the slice start.
        assert np.mean(500 + ranks(sampler._inner, draws - 500) < 510) > 0.3

    def test_distinct_stays_in_slice(self, rng):
        spec = PartitionedPopularity(UniformPopularity(), tenant=2, tenants=5)
        picks = spec.build(50, rng).sample_block([10])
        assert sorted(picks) == sorted(set(int(p) for p in picks))
        assert all(20 <= p < 30 for p in picks)

    def test_validation(self, rng):
        with pytest.raises(WorkloadError, match="tenants"):
            PartitionedPopularity(UniformPopularity(), 0, 0)
        with pytest.raises(WorkloadError, match="tenant"):
            PartitionedPopularity(UniformPopularity(), 3, 3)
        with pytest.raises(WorkloadError, match="slices"):
            PartitionedPopularity(UniformPopularity(), 0, 10).build(5, rng)


@given(
    keyspace=st.integers(10, 500),
    n=st.integers(1, 10),
    s=st.floats(min_value=0.0, max_value=2.0),
    seed=st.integers(0, 1000),
)
@settings(max_examples=60, deadline=None)
def test_distinct_samples_are_distinct_and_in_range(keyspace, n, s, seed):
    rng = np.random.default_rng(seed)
    sampler = ZipfPopularity(s=s).build(keyspace, rng)
    picks = sampler.sample_block([n])
    assert len(set(int(p) for p in picks)) == n
    assert all(0 <= p < keyspace for p in picks)
