"""Unit and statistical tests for arrival processes."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.sim.rand import as_batched
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
        gap = PoissonArrivals(rate=100.0).gaps(as_batched(rng))
        gaps = [gap(0.0) for _ in range(20000)]
        assert np.mean(gaps) == pytest.approx(0.01, rel=0.05)

    def test_memorylessness_cv(self, rng):
        gap = PoissonArrivals(rate=50.0).gaps(as_batched(rng))
        gaps = np.array([gap(0.0) for _ in range(20000)])
        assert gaps.std() / gaps.mean() == pytest.approx(1.0, rel=0.05)


class TestDeterministic:
    def test_constant_gap(self, rng):
        gap = DeterministicArrivals(rate=10.0).gaps(as_batched(rng))
        assert gap(0.0) == pytest.approx(0.1)
        assert gap(55.0) == pytest.approx(0.1)

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
        # A calm state at 100/s and a burst at 10 000/s, 10 ms dwells: the
        # state lives inside the gap function, so it shows in the gaps.
        spec = MMPPArrivals(rates=(100.0, 10_000.0), dwell_means=(0.01, 0.01))
        gap = spec.gaps(as_batched(rng))
        t = 0.0
        gaps = []
        for _ in range(2000):
            gaps.append(gap(t))
            t += gaps[-1]
        # After many 10 ms dwells, both states were visited: burst gaps
        # (mean 0.1 ms) and gaps cut by a calm dwell coexist.
        assert min(gaps) < 1e-4 and max(gaps) > 1e-3

    def test_empirical_rate_matches_two_state_average(self, rng):
        spec = MMPPArrivals(rates=(50.0, 200.0), dwell_means=(0.5, 0.5))
        gap = spec.gaps(as_batched(rng))
        t = 0.0
        n = 20000
        for _ in range(n):
            t += gap(t)
        assert n / t == pytest.approx(spec.mean_rate(), rel=0.1)

