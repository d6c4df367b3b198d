"""Runtime failure paths: fault windows, retries, reconnects, chaos.

These are the runtime twins of the simulator's X2 fault-tolerance
benchmark: a server misbehaving (stalled, dropping, delayed, dead) must
not hang a protected client, and recovery must need no manual steps.
"""

import asyncio

import pytest

from repro.faults.plan import DelaySpike, PacketLoss, Partition
from repro.faults.resilience import HedgePolicy
from repro.runtime import LocalCluster, RetryPolicy, ServerUnavailableError

from tests.conftest import end_window_at


def run(coro):
    return asyncio.run(coro)


def cut(server_id):
    """A partition of ``server_id`` from every client for the whole test."""
    return Partition(at=0.0, until=60.0, servers=(server_id,))


def keys_for_server(client, server_id, n, prefix="k"):
    """First ``n`` generated keys the ring assigns to ``server_id``."""
    keys, i = [], 0
    while len(keys) < n:
        candidate = f"{prefix}:{i:04d}"
        if client.owner(candidate) == server_id:
            keys.append(candidate)
        i += 1
    return keys


class TestTimeoutsAndRetries:
    def test_unprotected_client_hangs_on_stalled_server(self):
        async def scenario():
            async with LocalCluster(n_servers=2, byte_rate=None) as cluster:
                keys = keys_for_server(cluster.client, 0, 2)
                await cluster.preload({k: b"v" for k in keys})
                cluster.faults.start(cut(0))
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(cluster.client.multiget(keys), 0.25)

        run(scenario())

    def test_retry_counter_increments_under_injected_drops(self):
        async def scenario():
            async with LocalCluster(n_servers=2, byte_rate=None) as cluster:
                key = keys_for_server(cluster.client, 0, 1)[0]
                await cluster.client.put(key, b"survives")
                protected = await cluster.new_client(
                    retry_policy=RetryPolicy(
                        op_timeout=0.05, max_attempts=3, backoff_base=0.005
                    )
                )
                loss = PacketLoss(at=0.0, until=60.0, probability=1.0, servers=(0,))
                cluster.faults.start(loss)
                closer = asyncio.create_task(
                    end_window_at(cluster.faults, loss, cluster.servers[0], "dropped", 2)
                )
                value = await protected.get(key)
                await closer
                assert value == b"survives"
                stats = protected.stats()
                assert stats["retries"] == 2
                assert stats["timeouts"] == 2
                assert cluster.servers[0].stats()["faults"]["dropped"] == 2

        run(scenario())

    def test_retry_budget_exhausts_with_operation_timeout(self):
        async def scenario():
            async with LocalCluster(n_servers=2, byte_rate=None) as cluster:
                key = keys_for_server(cluster.client, 0, 1)[0]
                protected = await cluster.new_client(
                    retry_policy=RetryPolicy(
                        op_timeout=0.03, max_attempts=2, backoff_base=0.005
                    )
                )
                cluster.faults.start(cut(0))
                with pytest.raises(ServerUnavailableError):
                    await protected.get(key)
                assert protected.stats()["timeouts"] == 2

        run(scenario())

    def test_total_deadline_budget_bounds_wall_clock(self):
        async def scenario():
            async with LocalCluster(n_servers=1, byte_rate=None) as cluster:
                protected = await cluster.new_client(
                    retry_policy=RetryPolicy(
                        op_timeout=0.2,
                        max_attempts=50,
                        backoff_base=0.0,
                        total_deadline=0.15,
                    )
                )
                cluster.faults.start(cut(0))
                loop = asyncio.get_running_loop()
                start = loop.time()
                with pytest.raises(ServerUnavailableError):
                    await protected.get("any")
                assert loop.time() - start < 1.0

        run(scenario())


class TestCrashAndReconnect:
    def test_server_killed_mid_multiget_fails_fast_not_hangs(self):
        async def scenario():
            async with LocalCluster(n_servers=2, byte_rate=None) as cluster:
                keys = keys_for_server(cluster.client, 1, 3)
                await cluster.preload({k: b"v" for k in keys})
                protected = await cluster.new_client(
                    retry_policy=RetryPolicy(
                        op_timeout=0.1, max_attempts=2, backoff_base=0.005
                    )
                )
                cluster.faults.start(
                    DelaySpike(at=0.0, until=60.0, extra=0.5, servers=(1,))
                )
                fetch = asyncio.create_task(protected.multiget(keys))
                await asyncio.sleep(0.05)  # multiget now in flight
                await cluster.crash(1)
                with pytest.raises((ServerUnavailableError, ConnectionError)):
                    await asyncio.wait_for(fetch, 2.0)

        run(scenario())

    def test_reconnect_after_restart_roundtrips(self):
        async def scenario():
            async with LocalCluster(n_servers=2, byte_rate=None) as cluster:
                key = keys_for_server(cluster.client, 1, 1)[0]
                await cluster.client.put(key, b"durable")
                protected = await cluster.new_client(
                    retry_policy=RetryPolicy(
                        op_timeout=0.1, max_attempts=3, backoff_base=0.01
                    ),
                    breaker_reset_timeout=0.05,
                )
                assert await protected.get(key) == b"durable"
                port_before = cluster.servers[1].port
                await cluster.crash(1)
                with pytest.raises(ServerUnavailableError):
                    await protected.get(key)
                await cluster.restart(1)
                assert cluster.servers[1].port == port_before
                await asyncio.sleep(0.06)  # past the breaker reset window
                # No manual reconnect: the dead connection is replaced.
                assert await protected.get(key) == b"durable"
                assert protected.stats()["reconnects"] >= 1
                assert await protected.multiget([key]) == {key: b"durable"}

        run(scenario())


class TestPartialMultiget:
    def test_partial_returns_surviving_keys_and_report(self):
        async def scenario():
            async with LocalCluster(n_servers=3, byte_rate=None) as cluster:
                items = {f"key:{i:03d}": f"v{i}".encode() for i in range(30)}
                await cluster.preload(items)
                dead = [k for k in items if cluster.client.owner(k) == 0]
                live = [k for k in items if cluster.client.owner(k) != 0]
                assert dead and live
                protected = await cluster.new_client(
                    retry_policy=RetryPolicy(
                        op_timeout=0.05, max_attempts=2, backoff_base=0.005
                    )
                )
                cluster.faults.start(cut(0))
                values, report = await protected.multiget(
                    list(items), partial=True
                )
                assert set(values) == set(live)
                assert all(values[k] == items[k] for k in live)
                assert set(report.failed_servers) == {0}
                assert sorted(report.missing_keys) == sorted(dead)
                assert report.requested == len(items)
                assert report.fetched == len(live)
                assert not report.complete
                assert report.retries > 0

        run(scenario())

    def test_partial_complete_when_all_healthy(self):
        async def scenario():
            async with LocalCluster(n_servers=2, byte_rate=None) as cluster:
                await cluster.client.put("a", b"1")
                values, report = await cluster.client.multiget(
                    ["a", "missing"], partial=True
                )
                assert values == {"a": b"1", "missing": None}
                assert report.complete
                assert report.missing_keys == []

        run(scenario())


class TestHedging:
    def test_hedge_wins_over_delayed_primary(self):
        async def scenario():
            async with LocalCluster(n_servers=1, byte_rate=None) as cluster:
                await cluster.client.put("slowkey", b"payload")
                hedger = await cluster.new_client(
                    retry_policy=RetryPolicy(op_timeout=1.0, max_attempts=2),
                    hedge_policy=HedgePolicy(hedge_after=0.03),
                )
                # Only the first reply (the primary's) is delayed; the
                # hedge on the secondary connection sails through.
                spike = DelaySpike(at=0.0, until=60.0, extra=0.4, servers=(0,))
                cluster.faults.start(spike)
                closer = asyncio.create_task(
                    end_window_at(cluster.faults, spike, cluster.servers[0], "delayed", 1)
                )
                loop = asyncio.get_running_loop()
                start = loop.time()
                assert await hedger.get("slowkey") == b"payload"
                assert loop.time() - start < 0.35
                await closer
                stats = hedger.stats()
                assert stats["hedges_sent"] >= 1
                assert stats["hedges_won"] >= 1

        run(scenario())

    def test_hedge_requires_retry_policy(self):
        from repro.runtime.client import RuntimeClient

        with pytest.raises(ValueError):
            RuntimeClient(
                endpoints=[("127.0.0.1", 1)],
                hedge_policy=HedgePolicy(hedge_after=0.1),
            )


class TestGracefulDegradationChaos:
    def test_chaos_crashed_server_partial_service_then_recovery(self):
        """The acceptance scenario: 4 servers, server 0 dark mid-run.

        An unprotected client hangs past a 250 ms deadline; a protected
        client completes every multiget with the live servers' keys and a
        report naming the dead one, then recovers fully — no manual
        reconnection — once the server comes back.
        """

        async def scenario():
            async with LocalCluster(n_servers=4, byte_rate=None) as cluster:
                items = {f"key:{i:03d}": f"value-{i}".encode() for i in range(40)}
                await cluster.preload(items)
                dead = [k for k in items if cluster.client.owner(k) == 0]
                live = [k for k in items if cluster.client.owner(k) != 0]
                assert dead and live
                protected = await cluster.new_client(
                    retry_policy=RetryPolicy(
                        op_timeout=0.05, max_attempts=3, backoff_base=0.005
                    ),
                    breaker_reset_timeout=0.1,
                )

                # Server 0 crashes mid-run (stalls, the worst failure mode:
                # TCP stays up but nothing answers).
                dark = cut(0)
                cluster.faults.start(dark)

                # Unprotected client: hangs past the 250 ms deadline.
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(
                        cluster.client.multiget(list(items)), 0.25
                    )

                # Protected client: every multiget completes with all the
                # live servers' keys and names the dead server.
                for _ in range(3):
                    values, report = await protected.multiget(
                        list(items), partial=True
                    )
                    assert set(values) == set(live)
                    assert all(values[k] == items[k] for k in live)
                    assert set(report.failed_servers) == {0}
                    assert sorted(report.missing_keys) == sorted(dead)
                assert protected.stats()["retries"] > 0

                # Server 0 restarts; the client reconverges on its own.
                cluster.faults.end(dark)
                await asyncio.sleep(0.15)  # let the breaker go half-open
                values, report = await protected.multiget(
                    list(items), partial=True
                )
                assert report.complete
                assert values == items

        run(scenario())

    def test_hard_crash_recovery_with_real_restart(self):
        """Same story with a real process-death: sockets severed, then a
        restart on the same port and automatic client reconnection."""

        async def scenario():
            async with LocalCluster(n_servers=4, byte_rate=None) as cluster:
                items = {f"key:{i:03d}": f"value-{i}".encode() for i in range(40)}
                await cluster.preload(items)
                live = [k for k in items if cluster.client.owner(k) != 0]
                protected = await cluster.new_client(
                    retry_policy=RetryPolicy(
                        op_timeout=0.05, max_attempts=3, backoff_base=0.005
                    ),
                    breaker_reset_timeout=0.1,
                )
                await cluster.crash(0)
                values, report = await protected.multiget(
                    list(items), partial=True
                )
                assert set(values) == set(live)
                assert set(report.failed_servers) == {0}
                await cluster.restart(0)
                await asyncio.sleep(0.15)
                values, report = await protected.multiget(
                    list(items), partial=True
                )
                assert report.complete
                assert values == items
                assert protected.stats()["reconnects"] >= 1

        run(scenario())


class TestObservability:
    def test_server_stats_shape(self):
        async def scenario():
            async with LocalCluster(n_servers=1, byte_rate=None) as cluster:
                await cluster.client.put("k", b"v")
                stats = cluster.servers[0].stats()
                assert stats["ops_served"] == 1
                assert stats["connections_accepted"] == 1
                assert stats["active_connections"] == 1
                assert set(stats["faults"]) == {
                    "dropped",
                    "delayed",
                    "refused_connections",
                }

        run(scenario())

    def test_cluster_stats_combines_servers_and_client(self):
        async def scenario():
            async with LocalCluster(n_servers=2, byte_rate=None) as cluster:
                await cluster.client.put("k", b"v")
                stats = cluster.stats()
                assert set(stats["servers"]) == {0, 1}
                assert "retries" in stats["client"]

        run(scenario())


class TestPreload:
    def test_preload_batches_with_bounded_concurrency(self):
        async def scenario():
            async with LocalCluster(n_servers=2, byte_rate=None) as cluster:
                items = {f"key:{i:03d}": f"v{i}".encode() for i in range(50)}
                await cluster.preload(items, concurrency=8)
                values = await cluster.client.multiget(list(items))
                assert values == items

        run(scenario())

    def test_preload_rejects_bad_concurrency(self):
        async def scenario():
            async with LocalCluster(n_servers=1, byte_rate=None) as cluster:
                with pytest.raises(ValueError):
                    await cluster.preload({"k": b"v"}, concurrency=0)

        run(scenario())
