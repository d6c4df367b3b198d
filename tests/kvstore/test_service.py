"""Unit tests for the service-time model."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.kvstore.service import ServiceModel


class TestDemand:
    def test_demand_formula(self):
        model = ServiceModel(per_op_overhead=10e-6, byte_rate=1e6)
        assert model.demand(1000) == pytest.approx(10e-6 + 1e-3)

    def test_zero_size_is_overhead_only(self):
        model = ServiceModel(per_op_overhead=5e-6, byte_rate=1e6)
        assert model.demand(0) == pytest.approx(5e-6)

    def test_negative_size_rejected(self):
        with pytest.raises(ConfigError):
            ServiceModel().demand(-1)


class TestValidation:
    def test_bad_overhead(self):
        with pytest.raises(ConfigError):
            ServiceModel(per_op_overhead=-1)

    def test_bad_byte_rate(self):
        with pytest.raises(ConfigError):
            ServiceModel(byte_rate=0)

    def test_bad_base_speed(self):
        with pytest.raises(ConfigError):
            ServiceModel(base_speed=0)

    def test_noise_requires_rng(self):
        with pytest.raises(ConfigError):
            ServiceModel(noise_cv=0.5)

    def test_bad_degradation_factor(self):
        with pytest.raises(ConfigError):
            ServiceModel(speed_steps=[(1.0, 0.0)])

    def test_bad_degradation_time(self):
        with pytest.raises(ConfigError):
            ServiceModel(speed_steps=[(-1.0, 0.5)])


class TestSpeedFactor:
    def test_no_degradations_is_base_speed(self):
        model = ServiceModel(base_speed=1.5)
        assert model.speed_factor(0.0) == 1.5
        assert model.speed_factor(1e9) == 1.5

    def test_step_function(self):
        model = ServiceModel(speed_steps=[(10.0, 0.5), (20.0, 1.0)])
        assert model.speed_factor(9.99) == 1.0
        assert model.speed_factor(10.0) == 0.5
        assert model.speed_factor(19.99) == 0.5
        assert model.speed_factor(20.0) == 1.0

    def test_unsorted_events_are_sorted(self):
        model = ServiceModel(speed_steps=[(20.0, 2.0), (10.0, 0.5)])
        assert model.speed_factor(15.0) == 0.5
        assert model.speed_factor(25.0) == 2.0

    def test_base_speed_multiplies_degradation(self):
        model = ServiceModel(base_speed=2.0, speed_steps=[(5.0, 0.5)])
        assert model.speed_factor(6.0) == pytest.approx(1.0)


class TestServiceTimes:
    def test_degraded_server_is_slower(self):
        model = ServiceModel(speed_steps=[(10.0, 0.5)])
        fast = model.sample_service_time(1000, now=0.0)
        slow = model.sample_service_time(1000, now=15.0)
        assert slow == pytest.approx(2.0 * fast)

    def test_noise_has_mean_one(self):
        rng = np.random.default_rng(0)
        model = ServiceModel(noise_cv=0.3, rng=rng)
        base = model.demand(1000)
        samples = np.array(
            [model.sample_service_time(1000, now=0.0) for _ in range(5000)]
        )
        assert samples.mean() == pytest.approx(base, rel=0.03)

    def test_noise_cv_matches(self):
        rng = np.random.default_rng(1)
        model = ServiceModel(noise_cv=0.5, rng=rng)
        samples = np.array(
            [model.sample_service_time(1000, now=0.0) for _ in range(20000)]
        )
        cv = samples.std() / samples.mean()
        assert cv == pytest.approx(0.5, rel=0.1)

    def test_rate_sample(self):
        model = ServiceModel()
        # Served in half the demanded time -> rate 2.0
        assert model.rate_sample(demand=2e-3, actual=1e-3) == pytest.approx(2.0)

    def test_rate_sample_guards_zero(self):
        model = ServiceModel(base_speed=1.25)
        assert model.rate_sample(1e-3, 0.0) == 1.25

    def test_repr(self):
        assert "speed_steps=0" in repr(ServiceModel())
