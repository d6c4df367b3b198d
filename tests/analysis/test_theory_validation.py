"""Simulator validation against closed-form queueing theory.

These tests are the credibility anchor of the whole evaluation: if the
discrete-event engine reproduces M/G/1 within a few percent, scheduler
comparisons built on it measure scheduling, not simulator artifacts.
"""

import pytest

from repro.analysis.theory import (
    mg1_mean_wait,
    mm1_mean_wait,
    predict_single_key_fcfs,
    service_moments_from_keyspace,
)
from repro.errors import ConfigError
from repro.kvstore.cluster import Cluster
from repro.kvstore.config import ClusterConfig, ServiceConfig, SimulationConfig
from repro.workload.arrivals import PoissonArrivals
from repro.workload.fanout import FixedFanout
from repro.workload.popularity import UniformPopularity
from repro.workload.sizes import ExponentialSize, FixedSize


def single_key_config(load, sizes, n_servers=4, seed=3):
    service = ServiceConfig(per_op_overhead=20e-6, byte_rate=50e6, noise_cv=0.0)
    mean_demand = service.mean_demand(sizes.mean())
    rate = load * n_servers / mean_demand
    return ClusterConfig(
        n_servers=n_servers,
        n_clients=2,
        seed=seed,
        scheduler="fcfs",
        keyspace_size=2000,
        arrivals=PoissonArrivals(rate=rate),
        fanout=FixedFanout(k=1),
        sizes=sizes,
        popularity=UniformPopularity(),
        service=service,
        network_base_delay=10e-6,
        vnodes=256,  # tight ring balance for the uniform-split assumption
    )


class TestFormulas:
    def test_mm1_known_value(self):
        # rho = 0.5: Wq = rho / (mu - lambda) = 0.5 / 0.5 = 1.0 (mu = 1).
        assert mm1_mean_wait(lam=0.5, mu=1.0) == pytest.approx(1.0)

    def test_mm1_unstable_rejected(self):
        with pytest.raises(ConfigError):
            mm1_mean_wait(lam=2.0, mu=1.0)

    def test_mg1_reduces_to_mm1_for_exponential(self):
        # Exponential service: E[S] = 1/mu, E[S^2] = 2/mu^2.
        mu = 4.0
        lam = 2.0
        assert mg1_mean_wait(lam, 1 / mu, 2 / mu**2) == pytest.approx(
            mm1_mean_wait(lam, mu)
        )

    def test_mg1_deterministic_is_half_of_exponential(self):
        # M/D/1 waits are half of M/M/1 at the same rho.
        mu = 4.0
        lam = 2.0
        deterministic = mg1_mean_wait(lam, 1 / mu, 1 / mu**2)
        exponential = mg1_mean_wait(lam, 1 / mu, 2 / mu**2)
        assert deterministic == pytest.approx(exponential / 2)

    def test_mg1_validation(self):
        with pytest.raises(ConfigError):
            mg1_mean_wait(1.0, 0.5, 0.1)  # E[S^2] < E[S]^2
        with pytest.raises(ConfigError):
            mg1_mean_wait(3.0, 0.5, 0.5)  # unstable

    def test_moments_from_keyspace(self):
        import numpy as np

        from repro.workload.requests import Keyspace

        keyspace = Keyspace(100, FixedSize(size=1000), np.random.default_rng(0))
        es, es2 = service_moments_from_keyspace(keyspace, 1e-4, 1e6)
        assert es == pytest.approx(1e-4 + 1e-3)
        assert es2 == pytest.approx(es * es)  # deterministic: no variance


class TestPredictionEnvelope:
    def test_rejects_multiget_configs(self):
        config = single_key_config(0.5, FixedSize(size=1000))
        config = type(config)(**{**config.__dict__, "fanout": FixedFanout(k=2)})
        cluster = Cluster(config)
        with pytest.raises(ConfigError, match="fan-out"):
            predict_single_key_fcfs(config, cluster.keyspace)

    def test_rejects_noisy_service(self):
        config = single_key_config(0.5, FixedSize(size=1000))
        noisy = type(config)(
            **{**config.__dict__, "service": ServiceConfig(noise_cv=0.2)}
        )
        cluster = Cluster(config)
        with pytest.raises(ConfigError, match="noise"):
            predict_single_key_fcfs(noisy, cluster.keyspace)


class TestSimulationMatchesTheory:
    """The headline validation: simulated mean RCT within ~7% of M/G/1."""

    @pytest.mark.parametrize("load", [0.3, 0.6, 0.8])
    def test_md1_deterministic_service(self, load):
        config = single_key_config(load, FixedSize(size=4096))
        cluster = Cluster(config)
        prediction = predict_single_key_fcfs(config, cluster.keyspace)
        result = cluster.run(
            SimulationConfig(max_requests=40_000, warmup_fraction=0.2)
        )
        assert result.mean_rct == pytest.approx(prediction.mean_rct, rel=0.07)

    @pytest.mark.parametrize("load", [0.3, 0.6])
    def test_mg1_exponential_like_service(self, load):
        config = single_key_config(load, ExponentialSize(mean_size=4096))
        cluster = Cluster(config)
        prediction = predict_single_key_fcfs(config, cluster.keyspace)
        result = cluster.run(
            SimulationConfig(max_requests=40_000, warmup_fraction=0.2)
        )
        assert result.mean_rct == pytest.approx(prediction.mean_rct, rel=0.10)

    def test_utilization_matches_rho(self):
        config = single_key_config(0.6, FixedSize(size=4096))
        cluster = Cluster(config)
        prediction = predict_single_key_fcfs(config, cluster.keyspace)
        result = cluster.run(
            SimulationConfig(max_requests=20_000, warmup_fraction=0.1)
        )
        assert result.mean_utilization == pytest.approx(prediction.rho, rel=0.08)

    def test_sjf_beats_fcfs_prediction_under_variance(self):
        """Sanity tying theory to scheduling: with variable service, SJF's
        mean beats the FCFS M/G/1 mean; with deterministic service it
        cannot (everything is the same size)."""
        config = single_key_config(0.7, ExponentialSize(mean_size=4096))
        sjf_config = type(config)(**{**config.__dict__, "scheduler": "sjf-req"})
        fcfs_cluster = Cluster(config)
        prediction = predict_single_key_fcfs(config, fcfs_cluster.keyspace)
        sim = SimulationConfig(max_requests=30_000, warmup_fraction=0.2)
        sjf_mean = Cluster(sjf_config).run(sim).mean_rct
        assert sjf_mean < prediction.mean_rct


class TestExactRingSplit:
    def test_exact_split_matches_simulation_tighter_near_saturation(self):
        config = single_key_config(0.85, FixedSize(size=4096))
        cluster = Cluster(config)
        exact = predict_single_key_fcfs(config, cluster.keyspace, ring=cluster.ring)
        result = cluster.run(
            SimulationConfig(max_requests=40_000, warmup_fraction=0.2)
        )
        assert result.mean_rct == pytest.approx(exact.mean_rct, rel=0.12)

    def test_exact_split_predicts_higher_wait_than_uniform(self):
        """Ownership imbalance always increases the average wait (Jensen:
        Wq is convex in rho), so the exact prediction dominates the
        uniform-split one."""
        config = single_key_config(0.8, FixedSize(size=4096))
        cluster = Cluster(config)
        uniform = predict_single_key_fcfs(config, cluster.keyspace)
        exact = predict_single_key_fcfs(config, cluster.keyspace, ring=cluster.ring)
        assert exact.mean_wait >= uniform.mean_wait

    def test_exact_split_rho_matches_offered_load(self):
        config = single_key_config(0.6, FixedSize(size=4096))
        cluster = Cluster(config)
        exact = predict_single_key_fcfs(config, cluster.keyspace, ring=cluster.ring)
        # The ownership-weighted rho is slightly above the nominal target
        # (weighting by share favours the busier servers) but close.
        assert exact.rho == pytest.approx(0.6, rel=0.1)
