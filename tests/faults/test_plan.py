"""FaultPlan schema: entry validation, scheduling, serialization, and the
LinkFaults state both halves consult per message."""

import pytest

from repro.errors import ConfigError
from repro.faults import (
    Crash,
    DelaySpike,
    FaultPlan,
    PacketLoss,
    Partition,
    Pause,
    Recover,
    SlowNode,
)
from repro.faults.plan import DROP, LinkFaults

CLIENT, SERVER = ("client", 0), ("server", 0)


class TestPauseValidation:
    def test_invalid_window_rejected(self):
        with pytest.raises(ConfigError):
            Pause(0, at=1.0, until=1.0)
        with pytest.raises(ConfigError):
            Pause(0, at=-1.0, until=1.0)

    def test_validate_for_unknown_server(self):
        plan = FaultPlan((Pause(7, at=0.1, until=0.2),))
        with pytest.raises(ConfigError, match="unknown server 7"):
            plan.validate_for(n_servers=4, n_clients=2)

    def test_overlapping_windows_rejected(self):
        with pytest.raises(ConfigError, match="server 1"):
            FaultPlan((Pause(1, at=1.5, until=3.0), Pause(1, at=0.0, until=2.0)))

    def test_touching_windows_rejected(self):
        # Either entry order: the seam is caught however the tie sorts.
        with pytest.raises(ConfigError, match="server 0"):
            FaultPlan((Pause(0, at=0.0, until=1.0), Pause(0, at=1.0, until=2.0)))
        with pytest.raises(ConfigError, match="server 0"):
            FaultPlan((Pause(0, at=1.0, until=2.0), Pause(0, at=0.0, until=1.0)))

    def test_disjoint_windows_on_one_server_accepted(self):
        FaultPlan((Pause(0, at=2.0, until=3.0), Pause(0, at=0.0, until=1.0)))

    def test_windows_on_different_servers_may_overlap(self):
        FaultPlan((Pause(0, at=0.0, until=2.0), Pause(1, at=1.0, until=3.0)))


class TestEntryValidation:
    def test_crash_negative_time_rejected(self):
        with pytest.raises(ConfigError):
            Crash(0, at=-1.0)

    def test_windowed_entries_need_positive_windows(self):
        with pytest.raises(ConfigError):
            Partition(at=1.0, until=1.0, servers=(0,))
        with pytest.raises(ConfigError):
            PacketLoss(at=2.0, until=1.0, probability=0.5)
        with pytest.raises(ConfigError):
            DelaySpike(at=1.0, until=0.5, extra=0.01)

    def test_packet_loss_probability_bounds(self):
        with pytest.raises(ConfigError):
            PacketLoss(at=0.0, until=1.0, probability=0.0)
        with pytest.raises(ConfigError):
            PacketLoss(at=0.0, until=1.0, probability=1.5)
        PacketLoss(at=0.0, until=1.0, probability=1.0)  # inclusive top

    def test_slow_node_factor_bounds(self):
        with pytest.raises(ConfigError):
            SlowNode(0, at=0.0, until=1.0, factor=0.0)
        with pytest.raises(ConfigError):
            SlowNode(0, at=0.0, until=1.0, factor=1.0)

    def test_partition_needs_servers(self):
        with pytest.raises(ConfigError):
            Partition(at=0.0, until=1.0, servers=())


class TestLifecycle:
    def test_double_crash_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan((Crash(0, at=0.1), Crash(0, at=0.2)))

    def test_orphan_recover_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan((Recover(0, at=0.5),))

    def test_crash_recover_crash_again_ok(self):
        FaultPlan(
            (
                Crash(0, at=0.1),
                Recover(0, at=0.2),
                Crash(0, at=0.3),
            )
        )

    def test_validate_for_unknown_server(self):
        plan = FaultPlan((Crash(7, at=0.1),))
        with pytest.raises(ConfigError):
            plan.validate_for(n_servers=4, n_clients=2)

    def test_validate_for_unknown_client(self):
        plan = FaultPlan(
            (Partition(at=0.0, until=1.0, servers=(0,), clients=(5,)),)
        )
        with pytest.raises(ConfigError):
            plan.validate_for(n_servers=4, n_clients=2)


class TestScheduling:
    def test_events_are_time_ordered(self):
        plan = FaultPlan(
            (
                Crash(0, at=1.0),
                Recover(0, at=2.0),
                PacketLoss(at=0.5, until=1.5, probability=0.3),
                SlowNode(1, at=0.25, until=0.75, factor=0.5),
            )
        )
        events = plan.scheduled_events()
        times = [e[0] for e in events]
        assert times == sorted(times)
        kinds = [e[2] for e in events]
        assert kinds == [
            "slow_node_start",
            "packet_loss_start",
            "slow_node_end",
            "crash",
            "packet_loss_end",
            "recover",
        ]

    def test_fault_window_spans_all_entries(self):
        plan = FaultPlan(
            (Crash(0, at=1.0), Recover(0, at=2.5), DelaySpike(at=0.5, until=2.0, extra=0.01))
        )
        assert plan.fault_window() == (0.5, 2.5)
        assert FaultPlan().fault_window() is None

    def test_slow_windows_are_degradation_steps(self):
        plan = FaultPlan((SlowNode(3, at=1.0, until=2.0, factor=0.4),))
        assert plan.slow_windows(3) == ((1.0, 0.4), (2.0, 1.0))
        assert plan.slow_windows(0) == ()

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan((Crash(0, at=0.0),))


class TestSerialization:
    def test_round_trip(self):
        plan = FaultPlan(
            (
                Crash(0, at=1.0),
                Recover(0, at=2.0),
                Partition(at=0.5, until=1.5, servers=(1, 2), clients=(0,)),
                PacketLoss(at=0.5, until=1.5, probability=0.3, servers=(1,), seed=9),
                DelaySpike(at=0.1, until=0.2, extra=0.005),
                SlowNode(3, at=0.3, until=0.6, factor=0.5),
                Pause(2, at=0.7, until=0.9),
            )
        )
        assert FaultPlan.from_dicts(plan.to_dicts()) == plan

    def test_timeline_matches_schedule(self):
        plan = FaultPlan((Crash(1, at=0.5), Recover(1, at=1.0)))
        timeline = plan.timeline()
        assert [t["at"] for t in timeline] == [0.5, 1.0]
        assert [t["event"] for t in timeline] == ["crash", "recover"]
        assert all(t["server"] == 1 for t in timeline)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan.from_dicts([{"kind": "meteor", "at": 0.0}])


class TestLinkFaults:
    def test_packet_loss_draws_repeat_from_the_entry_seed(self):
        loss = PacketLoss(at=0.0, until=1.0, probability=0.5, seed=7)
        runs = []
        for _ in range(2):
            faults = LinkFaults()
            faults.start(loss)
            runs.append([faults.verdict(CLIENT, SERVER) for _ in range(20)])
        assert runs[0] == runs[1]
        assert DROP in runs[0] and 0.0 in runs[0]

    def test_cut_checks_partitions_only(self):
        partition = Partition(at=0.0, until=1.0, servers=(0,))
        faults = LinkFaults()
        faults.start(PacketLoss(at=0.0, until=1.0, probability=1.0))
        faults.start(partition)
        assert faults.cut(CLIENT, SERVER)
        assert not faults.cut(CLIENT, ("server", 1))
        assert faults.counters() == {
            "dropped_partition": 0,
            "dropped_loss": 0,
            "delayed_messages": 0,
        }
        # A message the cut drops makes no loss draw.
        assert faults.verdict(CLIENT, SERVER) == DROP
        assert (faults.dropped_partition, faults.dropped_loss) == (1, 0)
        faults.end(partition)
        assert not faults.cut(CLIENT, SERVER)
        assert faults.verdict(CLIENT, SERVER) == DROP
        assert (faults.dropped_partition, faults.dropped_loss) == (1, 1)

    def test_delays_add_and_a_drop_beats_them(self):
        faults = LinkFaults()
        faults.start(DelaySpike(at=0.0, until=1.0, extra=0.001))
        faults.start(DelaySpike(at=0.0, until=1.0, extra=0.002, servers=(0,)))
        assert faults.verdict(CLIENT, SERVER) == pytest.approx(0.003)
        assert faults.verdict(CLIENT, ("server", 1)) == pytest.approx(0.001)
        faults.start(PacketLoss(at=0.0, until=1.0, probability=1.0, servers=(0,)))
        assert faults.verdict(CLIENT, SERVER) == DROP
        assert faults.delayed_messages == 2

    def test_only_link_entries_open_windows(self):
        with pytest.raises(TypeError):
            LinkFaults().start(Pause(0, at=0.0, until=1.0))
