"""Unit tests for the simulated front-end client."""

import pytest

from repro.errors import TraceFormatError
from repro.kvstore.cluster import Cluster
from repro.kvstore.config import SimulationConfig
from repro.workload.traces import TraceRecord

from tests.conftest import small_config


class TestGeneration:
    def test_max_requests_respected(self):
        cluster = Cluster(small_config(n_clients=1))
        client = cluster.clients[0]
        client.max_requests = 25
        cluster.env.run()
        assert client.requests_sent == 25
        assert client.generation_done

    def test_end_time_respected(self):
        cluster = Cluster(small_config(n_clients=1, load=0.4))
        client = cluster.clients[0]
        client.end_time = 0.05
        cluster.env.run()
        assert client.generation_done
        # All recorded arrivals fall before the end time.
        for record in cluster.metrics.records:
            assert record.arrival_time <= 0.05

    def test_request_ids_unique_across_clients(self):
        cluster = Cluster(small_config(n_clients=3))
        cluster.run(SimulationConfig(max_requests=90))
        ids = [r.request_id for r in cluster.metrics.records]
        assert len(ids) == len(set(ids))

    def test_outstanding_drains_to_zero(self):
        cluster = Cluster(small_config(n_clients=1))
        client = cluster.clients[0]
        client.max_requests = 10
        cluster.env.run()
        assert client.outstanding == 0
        assert client.drained
        assert client.requests_completed == 10

    def test_operation_timestamps_populated(self):
        cluster = Cluster(small_config(n_clients=1))
        cluster.run(SimulationConfig(max_requests=5))
        # Completion implies every op went dispatch -> enqueue -> start ->
        # finish -> response in order.
        for record in cluster.metrics.records:
            assert record.completion_time > record.arrival_time


class TestTraceClient:
    def test_trace_replay_uses_recorded_keys(self):
        records = tuple(
            TraceRecord(t=0.001 * i, keys=[f"key:{i % 100:010d}"], sizes=[1024])
            for i in range(50)
        )
        config = small_config(n_clients=1, trace=records)
        cluster = Cluster(config)
        result = cluster.run(SimulationConfig(max_requests=50))
        assert result.requests_completed == 50
        assert result.collector.ops_completed == 50

    def test_trace_split_across_clients(self):
        records = tuple(
            TraceRecord(t=0.001 * i, keys=[f"key:{i % 100:010d}"], sizes=[1024])
            for i in range(40)
        )
        config = small_config(n_clients=2, trace=records)
        cluster = Cluster(config)
        result = cluster.run(SimulationConfig(max_requests=40))
        sent = [c.requests_sent for c in cluster.clients]
        assert sent == [20, 20]
        assert result.requests_completed == 40

    def test_trace_key_missing_from_keyspace_fails_op(self):
        """A key outside the keyspace fails the cluster's construction,
        naming the record, instead of being served as a miss."""
        records = (
            TraceRecord(t=0.0, keys=["key:0000000001"], sizes=[10]),
            TraceRecord(t=0.1, keys=["key:0000000002", "not-a-real-key"], sizes=[10, 10]),
        )
        config = small_config(n_clients=1, trace=records)
        with pytest.raises(TraceFormatError, match=r"record 1: key 'not-a-real-key'"):
            Cluster(config)


class TestEstimatesFlow:
    def test_estimates_follow_piggybacked_feedback(self):
        config = small_config(scheduler="das", n_clients=1)
        cluster = Cluster(config)
        cluster.run(SimulationConfig(max_requests=100))
        estimates = cluster.clients[0].estimates
        # The client heard from servers and learned healthy rates (~1.0).
        assert estimates.feedback_count > 0
        for sid in estimates.known_servers():
            assert estimates.rate(sid) == pytest.approx(1.0, abs=0.1)
