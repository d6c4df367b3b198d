"""Integration tests for cluster assembly and end-to-end runs."""


import pytest

from repro.core.feedback import FeedbackConfig, FeedbackMode
from repro.faults.plan import Crash, FaultPlan
from repro.kvstore.cluster import Cluster, run_cluster
from repro.kvstore.config import SimulationConfig

from tests.conftest import quick_sim, small_config


class TestAssembly:
    def test_each_client_gets_estimates_when_feedback_on(self):
        cluster = Cluster(small_config(scheduler="das"))
        assert all(c.estimates is not None for c in cluster.clients)

    def test_no_estimates_when_feedback_none(self):
        config = small_config(
            scheduler="das", feedback=FeedbackConfig(mode=FeedbackMode.NONE)
        )
        cluster = Cluster(config)
        assert all(c.estimates is None for c in cluster.clients)

    def test_servers_know_all_clients(self):
        cluster = Cluster(small_config(n_clients=3))
        for server in cluster.servers.values():
            assert sorted(server.clients) == [0, 1, 2]


class TestRuns:
    @pytest.mark.parametrize(
        "scheduler",
        ["fcfs", "sjf-req", "sbf", "rein-ml", "das"],
    )
    def test_every_scheduler_completes_all_requests(self, scheduler):
        result = run_cluster(small_config(scheduler=scheduler), quick_sim(300))
        assert result.requests_sent == 300
        assert result.requests_completed == 300
        assert result.mean_rct > 0

    def test_max_requests_split_across_clients(self):
        cluster = Cluster(small_config(n_clients=3))
        cluster.run(SimulationConfig(max_requests=100))
        sent = [c.requests_sent for c in cluster.clients]
        assert sum(sent) == 100
        assert max(sent) - min(sent) <= 1

    def test_duration_mode_stops_clock(self):
        result = run_cluster(
            small_config(load=0.3), SimulationConfig(duration=0.5)
        )
        assert result.sim_time == pytest.approx(0.5)
        assert result.requests_completed > 0

    def test_duration_run_outlasts_an_early_drain(self):
        """Every request completes well before the duration ends; the
        clock still runs to the duration (utilization divides by it)."""
        result = run_cluster(
            small_config(load=0.05, seed=1), SimulationConfig(duration=0.2)
        )
        assert result.requests_completed == result.requests_sent == 100
        assert result.sim_time == 0.2

    def test_same_seed_reproduces_exactly(self):
        a = run_cluster(small_config(seed=5), quick_sim(200))
        b = run_cluster(small_config(seed=5), quick_sim(200))
        assert list(a.rcts()) == list(b.rcts())

    def test_different_seeds_differ(self):
        a = run_cluster(small_config(seed=5), quick_sim(200))
        b = run_cluster(small_config(seed=6), quick_sim(200))
        assert list(a.rcts()) != list(b.rcts())

    def test_utilization_matches_calibrated_load(self):
        result = run_cluster(small_config(load=0.6), quick_sim(3000))
        assert result.mean_utilization == pytest.approx(0.6, rel=0.15)

    def test_all_ops_succeed_on_preloaded_keyspace(self):
        result = run_cluster(small_config(), quick_sim(300))
        assert result.collector.ops_completed == 300 * 3  # fanout 3

    def test_warmup_excludes_early_requests(self):
        result = run_cluster(small_config(), quick_sim(500))
        assert 0 < len(result.rcts()) < 500

    @pytest.mark.parametrize("report_interval", [None, 0.01])
    def test_undrainable_run_says_how_many_requests_were_lost(self, report_interval):
        """One copy per key, the server crashes at once and the retry
        budget runs out: 172 requests can never complete.  A periodic
        reporter must not keep such a run alive forever."""
        config = small_config(
            load=0.3,
            seed=9,
            replication_factor=1,
            op_timeout=0.02,
            max_retries=1,
            fault_plan=FaultPlan((Crash(0, at=0.001),)),
            load_report_interval=report_interval,
        )
        with pytest.raises(RuntimeError, match="172 of 300 requests never completed"):
            Cluster(config).run(SimulationConfig(max_requests=300))

    def test_run_result_fields(self):
        config = small_config(n_servers=4)
        result = run_cluster(config, quick_sim(200))
        assert len(result.server_utilizations) == 4
        assert result.percentile(50) > 0
        summary = result.summary()
        assert summary.p50 <= summary.p99


class TestFeedbackModes:
    def test_periodic_feedback_populates_estimates(self):
        config = small_config(
            scheduler="das",
            feedback=FeedbackConfig(mode=FeedbackMode.PERIODIC, interval=1e-3),
        )
        cluster = Cluster(config)
        cluster.run(SimulationConfig(duration=0.2))
        client = cluster.clients[0]
        assert client.estimates.feedback_count > 0
        assert len(client.estimates.known_servers()) == config.n_servers

    def test_periodic_broadcaster_emits(self):
        config = small_config(
            feedback=FeedbackConfig(mode=FeedbackMode.PERIODIC, interval=0.5)
        )
        cluster = Cluster(config)
        received = []
        for client in cluster.clients:
            client.receive_feedback = lambda feedback, cid=client.client_id: (
                received.append((round(cluster.env.now, 6), feedback.server_id, cid))
            )
        cluster.run(SimulationConfig(duration=2.1))
        delay = config.network_base_delay
        assert received == [
            (round(at + delay, 6), sid, cid)
            for at in (0.5, 1.0, 1.5, 2.0)
            for sid in range(config.n_servers)
            for cid in range(config.n_clients)
        ]

    def test_piggyback_only_covers_contacted_servers(self):
        config = small_config(scheduler="das")
        cluster = Cluster(config)
        cluster.run(SimulationConfig(max_requests=50))
        client = cluster.clients[0]
        assert client.estimates.feedback_count > 0

    def test_das_without_feedback_still_works(self):
        config = small_config(
            scheduler="das", feedback=FeedbackConfig(mode=FeedbackMode.NONE)
        )
        result = run_cluster(config, quick_sim(200))
        assert result.requests_completed == 200


class TestReplicaSelection:
    @pytest.mark.parametrize(
        "selection", ["primary", "round_robin", "random", "least_estimated_work"]
    )
    def test_selection_policies_run(self, selection):
        config = small_config(
            scheduler="das", replication_factor=2, replica_selection=selection
        )
        result = run_cluster(config, quick_sim(200))
        assert result.requests_completed == 200
