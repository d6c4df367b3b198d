"""Unit and statistical tests for arrival processes."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workload.arrivals import (
    DeterministicArrivals,
    MMPPArrivals,
    PoissonArrivals,
)


class TestPoisson:
    def test_mean_rate(self):
        assert PoissonArrivals(rate=100.0).mean_rate() == 100.0

    def test_scaled(self):
        assert PoissonArrivals(rate=100.0).scaled(0.5).rate == 50.0

    def test_invalid_rate(self):
        with pytest.raises(WorkloadError):
            PoissonArrivals(rate=0)

    def test_empirical_mean_interarrival(self, rng):
        sampler = PoissonArrivals(rate=100.0).build(rng)
        gaps = [sampler.next_interarrival(0.0) for _ in range(20000)]
        assert np.mean(gaps) == pytest.approx(0.01, rel=0.05)

    def test_memorylessness_cv(self, rng):
        sampler = PoissonArrivals(rate=50.0).build(rng)
        gaps = np.array([sampler.next_interarrival(0.0) for _ in range(20000)])
        assert gaps.std() / gaps.mean() == pytest.approx(1.0, rel=0.05)


class TestDeterministic:
    def test_constant_gap(self, rng):
        sampler = DeterministicArrivals(rate=10.0).build(rng)
        assert sampler.next_interarrival(0.0) == pytest.approx(0.1)
        assert sampler.next_interarrival(55.0) == pytest.approx(0.1)

    def test_invalid(self):
        with pytest.raises(WorkloadError):
            DeterministicArrivals(rate=-1)


class TestMMPP:
    def test_validation(self):
        with pytest.raises(WorkloadError):
            MMPPArrivals(rates=(1.0,), dwell_means=(1.0,))
        with pytest.raises(WorkloadError):
            MMPPArrivals(rates=(1.0, 2.0), dwell_means=(1.0,))
        with pytest.raises(WorkloadError):
            MMPPArrivals(rates=(1.0, 0.0), dwell_means=(1.0, 1.0))
        with pytest.raises(WorkloadError):
            MMPPArrivals(rates=(1.0, 2.0), dwell_means=(1.0, 0.0))

    def test_mean_rate_dwell_weighted(self):
        spec = MMPPArrivals(rates=(10.0, 30.0), dwell_means=(1.0, 3.0))
        assert spec.mean_rate() == pytest.approx((10 * 1 + 30 * 3) / 4)

    def test_scaled_scales_rates_only(self):
        spec = MMPPArrivals(rates=(10.0, 30.0), dwell_means=(1.0, 3.0)).scaled(2.0)
        assert spec.rates == (20.0, 60.0)
        assert spec.dwell_means == (1.0, 3.0)

    def test_state_advances_over_time(self, rng):
        spec = MMPPArrivals(rates=(1000.0, 1000.0), dwell_means=(0.01, 0.01))
        sampler = spec.build(rng)
        t = 0.0
        for _ in range(2000):
            t += sampler.next_interarrival(t)
        # After ~2 seconds with 10ms dwells, many switches happened and we
        # are in a valid state.
        assert sampler.state in (0, 1)

    def test_empirical_rate_matches_two_state_average(self, rng):
        spec = MMPPArrivals(rates=(50.0, 200.0), dwell_means=(0.5, 0.5))
        sampler = spec.build(rng)
        t = 0.0
        n = 20000
        for _ in range(n):
            t += sampler.next_interarrival(t)
        assert n / t == pytest.approx(spec.mean_rate(), rel=0.1)

