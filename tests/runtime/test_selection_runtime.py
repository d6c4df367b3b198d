"""Integration tests: replica selection in the asyncio runtime.

Covers correctness of replicated reads/writes, the control-plane probe
path, and the behaviour the subsystem exists for: a degraded server
shedding read traffic under the Prequal-style policy.
"""

import asyncio

import pytest

from repro.runtime import LocalCluster
from repro.runtime.client import RuntimeClient
from repro.runtime.server import KVServer


def run(coro):
    return asyncio.run(coro)


class TestReplicatedCorrectness:
    def test_puts_reach_every_replica(self):
        async def scenario():
            async with LocalCluster(
                n_servers=3, byte_rate=None, replication_factor=3,
                selection="round_robin", trace_sample_rate=0,
            ) as cluster:
                await cluster.client.put("k", b"v")
                # Every server stored the key (rf == n_servers).
                counts = [len(s.storage) for s in cluster.servers]
                assert counts == [1, 1, 1]

        run(scenario())

    def test_reads_correct_from_any_replica(self):
        async def scenario():
            async with LocalCluster(
                n_servers=4, byte_rate=None, replication_factor=3,
                selection="random", trace_sample_rate=0,
            ) as cluster:
                items = {f"key:{i:03d}": f"value-{i}".encode() for i in range(30)}
                await cluster.preload(items)
                for _ in range(5):  # different replicas on each pass
                    values = await cluster.client.multiget(list(items))
                    assert values == items

        run(scenario())

    def test_selection_stats_exposed(self):
        async def scenario():
            async with LocalCluster(
                n_servers=3, byte_rate=None, replication_factor=2,
                selection="round_robin", trace_sample_rate=0,
            ) as cluster:
                await cluster.preload({"a": b"1", "b": b"2"})
                await cluster.client.multiget(["a", "b"])
                stats = cluster.client.stats()["selection"]
                assert stats["policy"] == "round_robin"
                assert stats["decisions"] >= 2

        run(scenario())

    def test_replication_factor_validated(self):
        with pytest.raises(ValueError, match="replication_factor"):
            RuntimeClient([("127.0.0.1", 1)], replication_factor=2)


class TestProbes:
    def test_probe_message_answers_from_control_plane(self):
        async def scenario():
            server = KVServer(scheduler="fcfs", byte_rate=None)
            await server.start()
            client = RuntimeClient([(server.host, server.port)])
            await client.connect()
            reply = await client._attempt(0, "probe", {}, timeout=2.0)
            await client.close()
            await server.stop()
            assert reply.fields["ok"]
            assert "in_flight" in reply.fields
            assert "feedback" in reply.fields
            assert server.stats()["probes_answered"] == 1

        run(scenario())

    def test_probes_fired_for_probe_based_policy(self):
        async def scenario():
            async with LocalCluster(
                n_servers=3, byte_rate=None, replication_factor=3,
                selection="prequal", trace_sample_rate=0,
            ) as cluster:
                await cluster.preload({f"k{i}": b"x" for i in range(10)})
                for _ in range(10):
                    await cluster.client.multiget([f"k{i}" for i in range(5)])
                # Let the fire-and-forget probe tasks drain.
                for _ in range(50):
                    if not cluster.client._probe_tasks:
                        break
                    await asyncio.sleep(0.01)
                stats = cluster.client.stats()
                assert stats["probes_sent"] > 0
                assert stats["probes_ok"] == stats["probes_sent"]
                answered = sum(
                    s.stats()["probes_answered"] for s in cluster.servers
                )
                assert answered == stats["probes_ok"]
                assert stats["selection"]["probes_added"] > 0

        run(scenario())

    def test_primary_policy_fires_no_probes(self):
        async def scenario():
            async with LocalCluster(
                n_servers=3, byte_rate=None, replication_factor=3,
                selection="primary", trace_sample_rate=0,
            ) as cluster:
                await cluster.preload({"a": b"1"})
                await cluster.client.multiget(["a"])
                assert cluster.client.stats()["probes_sent"] == 0

        run(scenario())


class TestLoadReports:
    def test_dodoor_cluster_broadcasts_and_absorbs_reports(self):
        async def scenario():
            async with LocalCluster(
                n_servers=3, byte_rate=None, replication_factor=3,
                selection="dodoor", load_report_interval=0.02,
                trace_sample_rate=0,
            ) as cluster:
                await cluster.preload({f"k{i}": b"x" for i in range(10)})
                deadline = asyncio.get_running_loop().time() + 2.0
                while asyncio.get_running_loop().time() < deadline:
                    await cluster.client.multiget([f"k{i}" for i in range(5)])
                    if cluster.client.stats()["load_reports"] >= 3:
                        break
                    await asyncio.sleep(0.02)
                stats = cluster.client.stats()
                assert stats["load_reports"] >= 3
                assert stats["probes_sent"] == 0  # reports replace probes
                selection = stats["selection"]
                assert selection["policy"] == "dodoor"
                assert selection["control_plane"]["messages_sent"]["report"] >= 3
                assert selection["reports_cached"] > 0
                sent = sum(
                    s.stats()["load_reports_sent"] for s in cluster.servers
                )
                assert sent >= stats["load_reports"]

        run(scenario())

    def test_reporter_defaults_on_for_report_fed_policy(self):
        # No explicit interval: LocalCluster must arm the reporter because
        # the dodoor registry entry declares load_reports.
        cluster = LocalCluster(
            n_servers=2, byte_rate=None, replication_factor=2,
            selection="dodoor", trace_sample_rate=0,
        )
        assert cluster.load_report_interval is not None
        assert all(
            s.load_report_interval == cluster.load_report_interval
            for s in cluster.servers
        )

    def test_reporter_stays_off_for_other_policies(self):
        cluster = LocalCluster(
            n_servers=2, byte_rate=None, replication_factor=2,
            selection="prequal", trace_sample_rate=0,
        )
        assert cluster.load_report_interval is None

    def test_interval_validated(self):
        with pytest.raises(ValueError, match="load_report_interval"):
            KVServer(byte_rate=None, load_report_interval=0.0)

    def test_report_loop_survives_restart(self):
        async def scenario():
            server = KVServer(
                scheduler="fcfs", byte_rate=None, load_report_interval=0.01
            )
            await server.start()
            assert server._report_task is not None
            await server.crash()
            assert server._report_task is None
            await server.restart()
            assert server._report_task is not None
            await server.stop()
            assert server._report_task is None

        run(scenario())


class TestDegradedServerSheds:
    def test_prequal_sheds_reads_from_slow_server(self):
        """A server made 100x slower ends up with well under its fair share.

        Server 2's per-op overhead is raised before start so its executor
        queue genuinely builds; the feedback and probe replies expose the
        congestion and the Prequal policy routes reads to the two healthy
        replicas.  (The slow server is not id 0 on purpose: cold-start
        tie-breaks favour low ids, which would mask weak shedding.)
        """

        async def scenario():
            cluster = LocalCluster(
                n_servers=3,
                scheduler="fcfs",
                replication_factor=3,
                selection="prequal",
                trace_sample_rate=0,
            )
            cluster.servers[2].per_op_overhead = 0.02
            async with cluster:
                items = {f"key:{i:03d}": b"x" * 64 for i in range(20)}
                await cluster.preload(items)
                keys = list(items)
                for i in range(40):
                    batch = [keys[(i + j) % len(keys)] for j in range(5)]
                    await cluster.client.multiget(batch)
                stats = cluster.client.stats()["selection"]
                total = sum(stats["picks"].values())
                slow = stats["picks"].get(2, 0)
                fair = total / 3
                assert slow < fair * 0.6, (
                    f"slow server kept {slow}/{total} picks "
                    f"(fair share {fair:.0f}): {stats['picks']}"
                )

        run(scenario())
