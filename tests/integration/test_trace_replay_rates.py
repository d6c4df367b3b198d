"""Trace replay teaches DAS each server's true rate.

A simulated server serves the size its operation names, and learns its
rate from that same operation's demand.  On the bundled ``trace-sample``
replay every server runs at speed 1.0, so every learned rate must sit
near 1.0: service noise (``noise_cv`` = 0.1) moves it by a few percent,
a served size that disagrees with the demand moves it by tens.
"""

import pytest

from repro import ClusterConfig, SimulationConfig
from repro.kvstore.cluster import Cluster


def test_trace_replay_learns_each_servers_speed():
    config = ClusterConfig(
        n_servers=4, n_clients=2, seed=3, scheduler="das", workload="trace-sample"
    )
    cluster = Cluster(config)
    cluster.run(SimulationConfig(max_requests=300))
    for server in cluster.servers.values():
        assert server.measured_rate == pytest.approx(1.0, abs=0.08)
