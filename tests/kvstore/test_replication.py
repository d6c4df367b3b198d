"""Unit tests for replica placement and selection."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.kvstore.partitioning import ConsistentHashRing
from repro.kvstore.replication import ReplicaPlacement


@pytest.fixture
def ring():
    return ConsistentHashRing(range(6))


class WorkTable:
    """The one ``ServerEstimates`` read ``least_estimated_work`` makes."""

    def __init__(self, work):
        self.work = work

    def queued_work(self, server_id, now):
        return self.work[server_id]


class TestConstruction:
    def test_replication_factor_bounds(self, ring):
        with pytest.raises(ConfigError):
            ReplicaPlacement(ring, replication_factor=0)
        with pytest.raises(ConfigError):
            ReplicaPlacement(ring, replication_factor=7)

    def test_unknown_policy_rejected(self, ring):
        with pytest.raises(ConfigError):
            ReplicaPlacement(ring, selection="fastest")

    def test_random_requires_rng(self, ring):
        with pytest.raises(ConfigError):
            ReplicaPlacement(ring, replication_factor=3, selection="random")

    def test_least_work_requires_callback(self, ring):
        with pytest.raises(ConfigError):
            ReplicaPlacement(
                ring, replication_factor=3, selection="least_estimated_work"
            )


class TestSelection:
    def test_primary_always_first_replica(self, ring):
        placement = ReplicaPlacement(ring, replication_factor=3, selection="primary")
        for i in range(30):
            key = f"k{i}"
            assert (
                placement.policy.select(key, placement.replicas(key))
                == ring.preference_list(key, 3)[0]
            )

    def test_round_robin_cycles_through_replicas(self, ring):
        placement = ReplicaPlacement(
            ring, replication_factor=3, selection="round_robin"
        )
        key = "hotkey"
        replicas = placement.replicas(key)
        picks = [placement.policy.select(key, replicas) for _ in range(6)]
        assert picks == replicas * 2

    def test_random_stays_within_replica_set(self, ring):
        placement = ReplicaPlacement(
            ring,
            replication_factor=3,
            selection="random",
            rng=np.random.default_rng(0),
        )
        key = "k"
        allowed = set(placement.replicas(key))
        picks = {
            placement.policy.select(key, placement.replicas(key))
            for _ in range(50)
        }
        assert picks <= allowed
        assert len(picks) > 1  # actually randomizes

    def test_least_estimated_work_picks_minimum(self, ring):
        work = {sid: float(sid) for sid in range(6)}  # server 0 least loaded
        placement = ReplicaPlacement(
            ring,
            replication_factor=3,
            selection="least_estimated_work",
            estimates=WorkTable(work),
        )
        for i in range(20):
            key = f"k{i}"
            replicas = placement.replicas(key)
            assert placement.policy.select(key, replicas) == min(replicas)

    def test_single_replica_short_circuits(self, ring):
        placement = ReplicaPlacement(ring, replication_factor=1, selection="primary")
        key = "k"
        assert placement.policy.select(key, placement.replicas(key)) == ring.owner(key)

    def test_replicas_is_the_full_preference_list(self, ring):
        placement = ReplicaPlacement(ring, replication_factor=3)
        key = "k"
        assert placement.replicas(key) == ring.preference_list(key, 3)

    def test_repr(self, ring):
        placement = ReplicaPlacement(ring, replication_factor=2)
        assert "n=2" in repr(placement)
