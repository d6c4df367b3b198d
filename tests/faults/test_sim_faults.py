"""Sim adapter: crashes drop work, link faults drop/delay messages."""

import pytest

from repro.faults import (
    Crash,
    DelaySpike,
    FaultPlan,
    PacketLoss,
    Partition,
    Recover,
    SlowNode,
)
from repro.kvstore.cluster import Cluster
from repro.kvstore.config import SimulationConfig

from tests.conftest import small_config


def run_with_plan(plan, duration=1.0, **overrides):
    config = small_config(load=0.3, seed=9, fault_plan=plan, **overrides)
    cluster = Cluster(config)
    result = cluster.run(SimulationConfig(duration=duration, warmup_fraction=0.0))
    return cluster, result


class TestCrashLifecycle:
    def test_crash_drops_queued_ops_unlike_outage(self):
        plan = FaultPlan((Crash(0, at=0.1), Recover(0, at=0.6)))
        cluster, result = run_with_plan(plan)
        server = cluster.servers[0]
        assert server.ops_dropped > 0
        assert server.crashes == 1
        assert not server.crashed  # recovered
        # Without retries those ops are gone: some requests never finish.
        assert result.requests_completed < result.requests_sent

    def test_crashed_server_refuses_new_ops(self):
        plan = FaultPlan((Crash(0, at=0.0),))
        cluster, _ = run_with_plan(plan, duration=0.5)
        server = cluster.servers[0]
        assert server.ops_served == 0
        assert server.ops_dropped > 0
        assert len(server.queue) == 0  # nothing parks, unlike an outage

    def test_server_serves_again_after_recover(self):
        plan = FaultPlan((Crash(0, at=0.1), Recover(0, at=0.3)))
        cluster, _ = run_with_plan(plan)
        served_before = cluster.servers[0].ops_served
        assert served_before > 0

    def test_retries_recover_crash_losses(self):
        plan = FaultPlan((Crash(0, at=0.2), Recover(0, at=0.6)))
        cluster, result = run_with_plan(
            plan, replication_factor=2, op_timeout=0.02, max_retries=2
        )
        assert result.requests_completed == result.requests_sent
        assert sum(c.retries_sent for c in cluster.clients) > 0

    def test_run_result_propagates_drop_counters(self):
        plan = FaultPlan((Crash(0, at=0.1), Recover(0, at=0.6)))
        cluster, result = run_with_plan(plan)
        assert result.server_ops_dropped[0] == cluster.servers[0].ops_dropped
        assert result.server_ops_dropped[0] > 0
        assert len(result.server_ops_failed) == len(cluster.servers)


class TestLinkFaults:
    def test_partition_blocks_reads_to_cut_servers(self):
        plan = FaultPlan((Partition(at=0.0, until=10.0, servers=(0,)),))
        cluster, result = run_with_plan(plan, duration=0.5)
        assert cluster.servers[0].ops_served == 0
        assert cluster.network.messages_dropped > 0
        assert result.faults["network"]["dropped_partition"] > 0

    def test_client_scoped_partition_spares_other_clients(self):
        plan = FaultPlan(
            (Partition(at=0.0, until=10.0, servers=(0,), clients=(0,)),)
        )
        cluster, _ = run_with_plan(plan, duration=0.5)
        # Client 1 still reaches server 0.
        assert cluster.servers[0].ops_served > 0
        assert cluster.network.messages_dropped > 0

    def test_packet_loss_drops_some_messages(self):
        plan = FaultPlan(
            (PacketLoss(at=0.0, until=10.0, probability=0.3, seed=3),)
        )
        cluster, result = run_with_plan(plan, duration=0.5)
        dropped = result.faults["network"]["dropped_loss"]
        assert 0 < dropped < cluster.network.messages_sent

    def test_packet_loss_is_seed_deterministic(self):
        plan = FaultPlan(
            (PacketLoss(at=0.0, until=10.0, probability=0.3, seed=3),)
        )
        _, r1 = run_with_plan(plan, duration=0.4)
        _, r2 = run_with_plan(plan, duration=0.4)
        assert (
            r1.faults["network"]["dropped_loss"]
            == r2.faults["network"]["dropped_loss"]
        )

    def test_delay_spike_inflates_latency_not_loss(self):
        base_plan = FaultPlan()
        spike = FaultPlan((DelaySpike(at=0.0, until=10.0, extra=0.005),))
        _, healthy = run_with_plan(base_plan, duration=0.5)
        cluster, spiked = run_with_plan(spike, duration=0.5)
        # Only the tail still in flight at the duration cut is unfinished.
        assert spiked.requests_sent - spiked.requests_completed < 50
        assert cluster.network.messages_dropped == 0
        assert spiked.mean_rct > healthy.mean_rct + 0.005

    def test_faults_cleared_after_window(self):
        plan = FaultPlan((Partition(at=0.0, until=0.2, servers=(0,)),))
        cluster, _ = run_with_plan(plan)
        assert not cluster.network.faults.active
        assert cluster.servers[0].ops_served > 0


class TestSlowNode:
    def test_slow_node_becomes_service_degradation(self):
        plan = FaultPlan((SlowNode(0, at=0.2, until=0.6, factor=0.5),))
        cluster, _ = run_with_plan(plan, duration=0.1)
        service = cluster.servers[0].service
        assert service.speed_factor(0.3) == pytest.approx(0.5)
        assert service.speed_factor(0.7) == pytest.approx(1.0)


class TestObservability:
    def test_timeline_matches_plan(self):
        plan = FaultPlan((Crash(0, at=0.1), Recover(0, at=0.3)))
        cluster, result = run_with_plan(plan)
        assert result.faults["applied"] == plan.timeline()
        assert result.faults["active"] == []

    def test_fault_metrics_registered(self):
        plan = FaultPlan((Crash(0, at=0.1), Recover(0, at=0.3)))
        _, result = run_with_plan(plan)
        snap = result.metrics_snapshot()
        counters = snap["metrics"]["counters"]
        gauges = snap["metrics"]["gauges"]
        assert counters['fault_events_total{kind="crash"}'] == 1
        assert counters['fault_events_total{kind="recover"}'] == 1
        assert "fault_active_windows" in gauges
        assert "fault_servers_crashed" in gauges
        assert any(k.startswith("server_ops_dropped") for k in gauges)
        assert snap["faults"] == result.faults

    def test_healthy_run_has_empty_faults_block(self):
        _, result = run_with_plan(FaultPlan(), duration=0.3)
        assert result.faults == {}

    def test_crash_gauge_counts_currently_down_servers(self):
        plan = FaultPlan((Crash(0, at=0.1),))  # never recovers
        cluster, result = run_with_plan(plan, duration=0.5)
        assert cluster.servers[0].crashed
        assert result.faults["active"] == ["crash"]
        assert result.faults["servers"][0]["crashed"] is True
