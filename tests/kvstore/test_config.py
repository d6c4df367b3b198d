"""Validation tests for cluster/simulation configuration."""

import pytest

from repro.core.feedback import FeedbackConfig, FeedbackMode
from repro.errors import ConfigError
from repro.faults import FaultPlan, SlowNode
from repro.kvstore.config import ClusterConfig, ServiceConfig, SimulationConfig
from repro.workload.fanout import FixedFanout


class TestServiceConfig:
    def test_defaults_valid(self):
        ServiceConfig()

    def test_mean_demand(self):
        service = ServiceConfig(per_op_overhead=1e-4, byte_rate=1e6, noise_cv=0)
        assert service.mean_demand(1000) == pytest.approx(1e-4 + 1e-3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"per_op_overhead": -1},
            {"byte_rate": 0},
            {"noise_cv": -0.1},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            ServiceConfig(**kwargs)


class TestClusterConfig:
    def test_defaults_valid(self):
        config = ClusterConfig()
        assert config.n_servers == 20
        assert config.mean_speed() == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_servers": 0},
            {"n_clients": 0},
            {"keyspace_size": 0},
            {"put_fraction": 1.5},
            {"replication_factor": 99},
            {"network_base_delay": -1},
        ],
    )
    def test_invalid_fields(self, kwargs):
        with pytest.raises(ConfigError):
            ClusterConfig(**kwargs)

    def test_server_speeds_length_checked(self):
        with pytest.raises(ConfigError):
            ClusterConfig(n_servers=3, server_speeds=(1.0, 1.0))

    def test_server_speeds_positive(self):
        with pytest.raises(ConfigError):
            ClusterConfig(n_servers=2, server_speeds=(1.0, 0.0))

    def test_mean_speed_computed(self):
        config = ClusterConfig(n_servers=2, server_speeds=(0.5, 1.5))
        assert config.mean_speed() == pytest.approx(1.0)

    def test_degradation_for_unknown_server_rejected(self):
        with pytest.raises(ConfigError):
            ClusterConfig(
                n_servers=2,
                fault_plan=FaultPlan((SlowNode(5, at=1.0, until=2.0, factor=0.5),)),
            )

    def test_tenant_slice_below_the_fanout_cap_rejected(self):
        """Each tenant's clients draw distinct keys from its slice alone:
        a slice smaller than the fan-out cap can never serve a request."""
        with pytest.raises(ConfigError, match=r"slice of 10 keys.*fan-out cap 16"):
            ClusterConfig(
                n_servers=4,
                n_clients=4,
                tenants=4,
                keyspace_size=40,
                fanout=FixedFanout(16),
            )
        ClusterConfig(n_servers=4, n_clients=4, tenants=4, keyspace_size=64,
                      fanout=FixedFanout(16))

    def test_feedback_config_embedded(self):
        config = ClusterConfig(
            feedback=FeedbackConfig(mode=FeedbackMode.PERIODIC, interval=1e-3)
        )
        assert config.feedback.periodic


class TestFeedbackConfig:
    def test_parse_from_string(self):
        assert FeedbackMode.parse("piggyback") is FeedbackMode.PIGGYBACK
        assert FeedbackMode.parse(FeedbackMode.NONE) is FeedbackMode.NONE

    def test_parse_unknown(self):
        with pytest.raises(ConfigError):
            FeedbackMode.parse("telepathy")

    def test_interval_positive(self):
        with pytest.raises(ConfigError):
            FeedbackConfig(interval=0)

    def test_mode_flags(self):
        assert FeedbackConfig(mode=FeedbackMode.PIGGYBACK).piggyback
        assert not FeedbackConfig(mode=FeedbackMode.NONE).piggyback


class TestSimulationConfig:
    def test_exactly_one_stopping_rule(self):
        with pytest.raises(ConfigError):
            SimulationConfig()
        with pytest.raises(ConfigError):
            SimulationConfig(duration=1.0, max_requests=100)

    def test_duration_mode(self):
        sim = SimulationConfig(duration=2.0)
        assert sim.max_requests is None

    def test_max_requests_mode(self):
        sim = SimulationConfig(max_requests=100)
        assert sim.duration is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"duration": 0},
            {"max_requests": 0},
            {"max_requests": 10, "warmup_fraction": 1.0},
            {"max_requests": 10, "warmup_fraction": -0.1},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            SimulationConfig(**kwargs)
