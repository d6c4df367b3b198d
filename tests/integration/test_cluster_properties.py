"""Property-based end-to-end invariants over random cluster configurations.

Whatever the (small) configuration, a finished run must conserve work:
every generated request completes exactly once, operation counts match
request fan-outs, completion times are causal, and the same seed replays
bit-for-bit.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore.cluster import Cluster
from repro.kvstore.config import ClusterConfig, ServiceConfig, SimulationConfig
from repro.workload.arrivals import PoissonArrivals
from repro.workload.fanout import UniformFanout
from repro.workload.popularity import UniformPopularity
from repro.workload.sizes import UniformSize


@st.composite
def cluster_configs(draw):
    n_servers = draw(st.integers(1, 6))
    scheduler = draw(
        st.sampled_from(["fcfs", "sbf", "das", "sjf-req", "rein-ml", "sfq"])
    )
    max_fanout = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 10_000))
    replication = draw(st.integers(1, min(2, n_servers)))
    service = ServiceConfig(per_op_overhead=1e-4, byte_rate=10e6, noise_cv=0.0)
    return ClusterConfig(
        n_servers=n_servers,
        n_clients=draw(st.integers(1, 3)),
        seed=seed,
        scheduler=scheduler,
        keyspace_size=50,
        arrivals=PoissonArrivals(rate=2000.0),
        fanout=UniformFanout(lo=1, hi=max_fanout),
        sizes=UniformSize(lo=100, hi=2000),
        popularity=UniformPopularity(),
        service=service,
        replication_factor=replication,
    )


@given(config=cluster_configs())
@settings(max_examples=25, deadline=None)
def test_run_conserves_requests_and_operations(config):
    cluster = Cluster(config)
    result = cluster.run(SimulationConfig(max_requests=60, warmup_fraction=0.0))

    # Every request generated completed exactly once.
    assert result.requests_sent == 60
    assert result.requests_completed == 60
    records = result.collector.records
    assert len(records) == 60
    assert len({r.request_id for r in records}) == 60

    # Operation conservation: completions+failures == total fan-out.
    total_ops = sum(r.fanout for r in records)
    assert result.collector.ops_completed + result.collector.ops_failed == total_ops
    assert result.collector.ops_failed == 0  # preloaded keyspace: no misses

    # Causality: completion after arrival, positive RCT.
    for record in records:
        assert record.completion_time > record.arrival_time

    # Server-side accounting agrees.
    served = sum(s.ops_served for s in cluster.servers.values())
    assert served == total_ops


@given(config=cluster_configs())
@settings(max_examples=10, deadline=None)
def test_same_config_replays_identically(config):
    def run_once():
        return list(
            Cluster(config)
            .run(SimulationConfig(max_requests=40, warmup_fraction=0.0))
            .rcts()
        )

    assert run_once() == run_once()
