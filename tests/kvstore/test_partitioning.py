"""Unit tests + properties for the consistent-hash ring."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PartitioningError
from repro.kvstore.partitioning import ConsistentHashRing, stable_hash


def sample_keys(n: int = 500):
    return [f"key:{i:06d}" for i in range(n)]


def clockwise_owner(server_ids, vnodes, key):
    """The ring's definition rebuilt from scratch: the server of the first
    vnode point clockwise of the key's hash, wrapping past the last point."""
    points = sorted(
        (stable_hash(f"server:{sid}/vnode:{v}"), sid)
        for sid in server_ids
        for v in range(vnodes)
    )
    h = stable_hash(key)
    return next((sid for point, sid in points if point > h), points[0][1])


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("abc") == stable_hash("abc")

    def test_different_inputs_differ(self):
        assert stable_hash("abc") != stable_hash("abd")

    def test_64_bit_range(self):
        value = stable_hash("anything")
        assert 0 <= value < 2**64


class TestRing:
    def test_owner_is_a_member(self):
        ring = ConsistentHashRing(range(5))
        for key in sample_keys(100):
            assert ring.owner(key) in range(5)

    def test_owner_deterministic(self):
        a = ConsistentHashRing(range(8))
        b = ConsistentHashRing(range(8))
        for key in sample_keys(50):
            assert a.owner(key) == b.owner(key)

    def test_single_server_owns_everything(self):
        ring = ConsistentHashRing([3])
        assert all(ring.owner(k) == 3 for k in sample_keys(20))

    def test_empty_ring_rejected(self):
        with pytest.raises(PartitioningError):
            ConsistentHashRing([])

    def test_duplicate_servers_rejected(self):
        with pytest.raises(PartitioningError):
            ConsistentHashRing([1, 1])

    def test_invalid_vnodes_rejected(self):
        with pytest.raises(PartitioningError):
            ConsistentHashRing([0], vnodes=0)

    def test_balance_reasonable(self):
        ring = ConsistentHashRing(range(10), vnodes=128)
        assert ring.balance_ratio(sample_keys(5000)) < 1.5

    def test_ownership_fractions_sum_to_one(self):
        ring = ConsistentHashRing(range(4))
        fractions = ring.ownership_fractions(sample_keys(1000))
        assert sum(fractions.values()) == pytest.approx(1.0)


class TestMembershipChanges:
    def test_add_server_moves_only_some_keys(self):
        ring = ConsistentHashRing(range(10))
        keys = sample_keys(2000)
        before = {k: ring.owner(k) for k in keys}
        ring.add_server(10)
        moved = sum(1 for k in keys if ring.owner(k) != before[k])
        # Consistent hashing: ~1/11 of keys move, never the majority.
        assert 0 < moved < len(keys) * 0.25

    def test_moved_keys_go_to_new_server_only(self):
        ring = ConsistentHashRing(range(5))
        keys = sample_keys(2000)
        before = {k: ring.owner(k) for k in keys}
        ring.add_server(99)
        for key in keys:
            after = ring.owner(key)
            if after != before[key]:
                assert after == 99

    def test_remove_server_redistributes_its_keys(self):
        ring = ConsistentHashRing(range(4))
        keys = sample_keys(1000)
        victims = [k for k in keys if ring.owner(k) == 0]
        survivors = {k: ring.owner(k) for k in keys if ring.owner(k) != 0}
        ring.remove_server(0)
        for key in victims:
            assert ring.owner(key) != 0
        for key, owner in survivors.items():
            assert ring.owner(key) == owner  # untouched keys stay put

    def test_add_duplicate_rejected(self):
        ring = ConsistentHashRing([1, 2])
        with pytest.raises(PartitioningError):
            ring.add_server(1)

    def test_remove_unknown_rejected(self):
        ring = ConsistentHashRing([1, 2])
        with pytest.raises(PartitioningError):
            ring.remove_server(9)

    def test_remove_last_server_rejected(self):
        ring = ConsistentHashRing([1])
        with pytest.raises(PartitioningError):
            ring.remove_server(1)

    def test_grown_ring_equals_ring_built_at_once(self):
        servers = [5, 0, 11, 3, 8, 1, 10, 2, 7, 4, 9, 6]
        whole = ConsistentHashRing(servers, vnodes=16)
        grown = ConsistentHashRing(servers[:1], vnodes=16)
        for sid in servers[1:]:
            grown.add_server(sid)
        assert grown._points == whole._points
        assert grown._owners == whole._owners
        assert grown.servers == whole.servers
        for key in sample_keys(2000):
            for n in range(1, len(servers) + 1):
                assert grown.preference_list(key, n) == whole.preference_list(key, n)


class TestPreferenceList:
    def test_distinct_servers(self):
        ring = ConsistentHashRing(range(6))
        for key in sample_keys(50):
            replicas = ring.preference_list(key, 3)
            assert len(replicas) == 3
            assert len(set(replicas)) == 3

    def test_first_entry_is_owner(self):
        ring = ConsistentHashRing(range(6))
        for key in sample_keys(50):
            assert ring.preference_list(key, 3)[0] == ring.owner(key)

    def test_prefix_stability(self):
        """preference_list(k, 2) is a prefix of preference_list(k, 3)."""
        ring = ConsistentHashRing(range(6))
        for key in sample_keys(50):
            assert ring.preference_list(key, 3)[:2] == ring.preference_list(key, 2)

    def test_owner_wraps_past_the_last_point(self):
        servers, vnodes = range(3), 2
        last = max(
            stable_hash(f"server:{sid}/vnode:{v}")
            for sid in servers
            for v in range(vnodes)
        )
        wrapping = [k for k in sample_keys(2000) if stable_hash(k) >= last]
        assert wrapping
        owner_first = ConsistentHashRing(servers, vnodes=vnodes)
        list_first = ConsistentHashRing(servers, vnodes=vnodes)
        for key in wrapping:
            expected = clockwise_owner(servers, vnodes, key)
            assert owner_first.owner(key) == expected
            assert owner_first.preference_list(key, 1)[0] == expected
            assert list_first.preference_list(key, 1)[0] == expected
            assert list_first.owner(key) == expected

    def test_owner_follows_membership_changes(self):
        ring = ConsistentHashRing(range(4), vnodes=8)
        keys = sample_keys(300)
        for members, change in (
            ([0, 1, 2, 3, 4], lambda: ring.add_server(4)),
            ([0, 2, 3, 4], lambda: ring.remove_server(1)),
        ):
            for key in keys:
                ring.owner(key)  # warm the cache the change must invalidate
            change()
            for key in keys:
                expected = clockwise_owner(members, 8, key)
                assert ring.owner(key) == expected
                assert ring.preference_list(key, 1)[0] == expected

    def test_too_many_replicas_rejected(self):
        ring = ConsistentHashRing(range(3))
        with pytest.raises(PartitioningError):
            ring.preference_list("k", 4)

    def test_zero_replicas_rejected(self):
        ring = ConsistentHashRing(range(3))
        with pytest.raises(PartitioningError):
            ring.preference_list("k", 0)


@given(
    n_servers=st.integers(1, 20),
    n_replicas=st.integers(1, 5),
    key=st.text(min_size=1, max_size=50),
)
@settings(max_examples=100, deadline=None)
def test_preference_list_properties(n_servers, n_replicas, key):
    if n_replicas > n_servers:
        n_replicas = n_servers
    ring = ConsistentHashRing(range(n_servers), vnodes=16)
    replicas = ring.preference_list(key, n_replicas)
    assert len(replicas) == n_replicas
    assert len(set(replicas)) == n_replicas
    assert all(0 <= r < n_servers for r in replicas)
    assert replicas[0] == ring.owner(key)


def test_key_table_walks_the_ring_without_a_per_key_cache():
    """The simulator's key table takes every key's walk once, through the
    per-slot cache only; each row is what a fresh ring's
    ``preference_list`` answers."""
    from repro import ClusterConfig
    from repro.kvstore.cluster import Cluster

    config = ClusterConfig(n_servers=256, replication_factor=3, keyspace_size=2000)
    cluster = Cluster(config)
    assert cluster.ring._pref_cache == {}
    fresh = ConsistentHashRing(range(256), vnodes=config.vnodes)
    table = cluster.key_table
    assert len(table.names) == 2000
    for key, row in zip(table.names, table.replicas):
        assert row == fresh.preference_list(key, 3)


def test_preference_lists_match_preference_list():
    ring = ConsistentHashRing(range(7), vnodes=8)
    keys = sample_keys(300)
    lists = ring.preference_lists(keys, 3)
    assert ring._pref_cache == {}
    assert lists == [ConsistentHashRing(range(7), vnodes=8).preference_list(k, 3) for k in keys]
    with pytest.raises(PartitioningError):
        ring.preference_lists(keys, 8)
