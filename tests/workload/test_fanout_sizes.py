"""Tests for fan-out and value-size distributions (analytic vs empirical)."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.sim.rand import as_batched
from repro.workload.fanout import (
    BimodalFanout,
    FixedFanout,
    GeometricFanout,
    UniformFanout,
)
from repro.workload.sizes import (
    BimodalSize,
    FixedSize,
    LognormalSize,
    ParetoSize,
    UniformSize,
)


def draws(spec, rng, n):
    """``n`` values of ``spec`` from a fresh stream over ``rng``."""
    return spec.draw(as_batched(rng), n).tolist()


def empirical_mean(spec, rng, n=30000):
    return np.mean(draws(spec, rng, n))


class TestFanoutSpecs:
    def test_fixed(self, rng):
        spec = FixedFanout(k=7)
        assert draws(spec, rng, 1) == [7]
        assert spec.mean() == 7.0
        assert spec.max_fanout() == 7

    def test_fixed_invalid(self):
        with pytest.raises(WorkloadError):
            FixedFanout(k=0)

    def test_uniform_range_and_mean(self, rng):
        spec = UniformFanout(lo=2, hi=8)
        values = draws(spec, rng, 5000)
        assert min(values) == 2 and max(values) == 8
        assert np.mean(values) == pytest.approx(spec.mean(), rel=0.05)

    def test_uniform_invalid(self):
        with pytest.raises(WorkloadError):
            UniformFanout(lo=0, hi=5)
        with pytest.raises(WorkloadError):
            UniformFanout(lo=5, hi=4)

    def test_geometric_mean_matches_analytic(self, rng):
        spec = GeometricFanout(mean_target=5.0, cap=64)
        assert empirical_mean(spec, rng) == pytest.approx(spec.mean(), rel=0.03)

    def test_geometric_cap_enforced(self, rng):
        spec = GeometricFanout(mean_target=10.0, cap=4)
        assert max(draws(spec, rng, 100)) <= 4

    def test_geometric_truncated_mean_below_target(self):
        spec = GeometricFanout(mean_target=10.0, cap=4)
        assert spec.mean() < 10.0

    def test_geometric_invalid(self):
        with pytest.raises(WorkloadError):
            GeometricFanout(mean_target=0.5)

    def test_bimodal_mean_and_values(self, rng):
        spec = BimodalFanout(small=2, large=32, p_large=0.25)
        assert set(draws(spec, rng, 1000)) == {2, 32}
        assert spec.mean() == pytest.approx(2 * 0.75 + 32 * 0.25)

    def test_bimodal_invalid(self):
        with pytest.raises(WorkloadError):
            BimodalFanout(small=32, large=2)
        with pytest.raises(WorkloadError):
            BimodalFanout(p_large=0.0)


class TestSizeSpecs:
    def test_fixed(self, rng):
        spec = FixedSize(size=2048)
        assert draws(spec, rng, 1) == [2048]
        assert spec.mean() == 2048.0

    def test_uniform(self, rng):
        spec = UniformSize(lo=100, hi=200)
        assert all(100 <= d <= 200 for d in draws(spec, rng, 100))

    def test_lognormal_mean_matches_analytic(self, rng):
        spec = LognormalSize(median=1000.0, sigma=1.0, cap=1 << 20)
        assert empirical_mean(spec, rng) == pytest.approx(spec.mean(), rel=0.05)

    def test_lognormal_cap_accounted_in_mean(self, rng):
        uncapped = LognormalSize(median=1000.0, sigma=1.5, cap=1 << 30)
        capped = LognormalSize(median=1000.0, sigma=1.5, cap=4096)
        assert capped.mean() < uncapped.mean()
        assert empirical_mean(capped, rng) == pytest.approx(
            capped.mean(), rel=0.05
        )

    def test_lognormal_mean_is_pinned(self):
        # The mean calibrates every bundled cell's arrival rate, so a change
        # in its last bit moves their RCTs.
        spec = LognormalSize(median=1024.0, sigma=1.0, cap=1 << 18)
        assert spec.mean() == 1688.2897967790773

    def test_lognormal_invalid(self):
        with pytest.raises(WorkloadError):
            LognormalSize(median=0)
        with pytest.raises(WorkloadError):
            LognormalSize(sigma=0)
        with pytest.raises(WorkloadError):
            LognormalSize(median=1000, cap=100)

    def test_pareto_mean_matches_analytic(self, rng):
        spec = ParetoSize(lo=256.0, alpha=2.5, cap=1 << 20)
        assert empirical_mean(spec, rng, n=100000) == pytest.approx(
            spec.mean(), rel=0.05
        )

    def test_pareto_respects_bounds(self, rng):
        spec = ParetoSize(lo=256.0, alpha=1.5, cap=10000)
        assert all(256 <= d <= 10000 for d in draws(spec, rng, 200))

    def test_pareto_invalid(self):
        with pytest.raises(WorkloadError):
            ParetoSize(alpha=0.0)
        with pytest.raises(WorkloadError):
            ParetoSize(alpha=-1.5)
        with pytest.raises(WorkloadError):
            ParetoSize(lo=0)
        with pytest.raises(WorkloadError):
            ParetoSize(lo=1000, cap=500)

    def test_pareto_heavy_tail_mean_matches_analytic(self, rng):
        # alpha <= 1 has an infinite untruncated mean; the cap keeps the
        # truncated mean finite and the analytic piecewise form must
        # match the empirical average (the ParetoSize bugfix regression).
        spec = ParetoSize(lo=256.0, alpha=0.9, cap=1 << 22)
        # Block draw: the truncated tail is so variable that a loop-sized
        # sample would need rel tolerances too loose to catch the bug.
        empirical = spec.draw(as_batched(rng), 2_000_000).mean()
        assert empirical == pytest.approx(spec.mean(), rel=0.05)

    def test_pareto_alpha_one_log_case(self, rng):
        spec = ParetoSize(lo=256.0, alpha=1.0, cap=1 << 22)
        assert spec.mean() == pytest.approx(
            256.0 * (1.0 + np.log((1 << 22) / 256.0))
        )
        empirical = spec.draw(as_batched(rng), 2_000_000).mean()
        assert empirical == pytest.approx(spec.mean(), rel=0.05)

    def test_pareto_alpha_continuity_at_one(self):
        # The piecewise mean() must be continuous across the log case.
        near = ParetoSize(lo=256.0, alpha=1.0 + 1e-9, cap=1 << 22).mean()
        at = ParetoSize(lo=256.0, alpha=1.0, cap=1 << 22).mean()
        assert near == pytest.approx(at, rel=1e-4)

    def test_bimodal_size(self, rng):
        spec = BimodalSize(small=100, large=10000, p_large=0.5)
        assert set(draws(spec, rng, 200)) == {100, 10000}
        assert spec.mean() == pytest.approx(5050.0)

    def test_bimodal_size_invalid(self):
        with pytest.raises(WorkloadError):
            BimodalSize(small=100, large=100)
