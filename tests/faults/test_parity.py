"""Sim/runtime parity: one FaultPlan drives both halves identically.

The acceptance test for the shared fault subsystem: the same plan object
applied to the simulated :class:`Cluster` (via ``ClusterConfig``) and to
the asyncio :class:`LocalCluster` (via ``apply_fault_plan``) must produce
the *same* fault timeline in their stats snapshots — same events, same
order, same (planned) times — and both must expose it through their
reporting surfaces.  Every entry kind also runs through both adapters on
its own; each adapter raises on an event it has no handler for, so a
kind only one half implements fails here.
"""

import asyncio

import pytest

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
import numpy as np

from repro.errors import ConfigError
from repro.faults.plan import _ENTRY_TYPES, DROP
from repro.faults.runtime import RuntimeFaultDriver
from repro.kvstore.cluster import Cluster
from repro.kvstore.config import SimulationConfig
from repro.runtime import LocalCluster
from repro.runtime.protocol import Message

from tests.conftest import small_config

#: Per entry kind, the entries of :data:`PLAN` that exercise it (a
#: ``Recover`` needs its ``Crash``).
KIND_ENTRIES = {
    "crash": (Crash(0, at=0.05), Recover(0, at=0.20)),
    "recover": (Crash(0, at=0.05), Recover(0, at=0.20)),
    "pause": (Pause(3, at=0.03, until=0.09),),
    "partition": (Partition(at=0.08, until=0.16, servers=(1,)),),
    "packet_loss": (
        PacketLoss(at=0.10, until=0.18, probability=0.5, servers=(2,), seed=5),
    ),
    "delay_spike": (DelaySpike(at=0.12, until=0.22, extra=0.002, servers=(3,)),),
    "slow_node": (SlowNode(2, at=0.02, until=0.24, factor=0.5),),
}

#: One entry of every kind, interleaved, on a 4-server cluster (the
#: shared Crash/Recover pair once).
PLAN = FaultPlan(
    tuple(
        dict.fromkeys(entry for entries in KIND_ENTRIES.values() for entry in entries)
    )
)


def sim_timeline(plan):
    config = small_config(load=0.2, seed=9, fault_plan=plan)
    cluster = Cluster(config)
    result = cluster.run(SimulationConfig(duration=0.3, warmup_fraction=0.0))
    return result.faults["applied"]


def runtime_timeline(plan, time_scale=0.2):
    async def scenario():
        async with LocalCluster(n_servers=4) as cluster:
            driver = cluster.apply_fault_plan(plan, time_scale=time_scale)
            await driver.wait()
            return cluster.stats()["fault_plan"]["applied"]

    return asyncio.run(scenario())


class TestTimelineParity:
    def test_same_plan_same_timeline(self):
        sim = sim_timeline(PLAN)
        runtime = runtime_timeline(PLAN)
        assert sim == runtime
        assert sim == PLAN.timeline()

    @pytest.mark.parametrize("kind", sorted(_ENTRY_TYPES))
    def test_each_kind_same_timeline(self, kind):
        plan = FaultPlan(KIND_ENTRIES[kind])
        sim = sim_timeline(plan)
        assert sim == runtime_timeline(plan)
        assert sim == plan.timeline()

    def test_timelines_carry_planned_times(self):
        # Both adapters record the plan's own times, immune to wall-clock
        # jitter; scaling the replay speed must not change the record.
        fast = runtime_timeline(PLAN, time_scale=0.1)
        assert [e["at"] for e in fast] == [
            e[0] for e in PLAN.scheduled_events()
        ]


#: The link end a fault plan names for the runtime's clients.
CLIENT = ("client", 0)


async def applied(driver, n):
    """Wait until ``driver`` has applied its first ``n`` events."""
    while len(driver.timeline) < n:
        await asyncio.sleep(0.001)


class TestRuntimeTranslation:
    def test_windows_opened_and_closed(self):
        loss = PacketLoss(at=0.0, until=0.05, probability=0.5, servers=(2,), seed=4)
        plan = FaultPlan(
            (
                Pause(0, at=0.0, until=0.05),
                Partition(at=0.0, until=0.05, servers=(1,)),
                loss,
                DelaySpike(at=0.0, until=0.05, extra=0.001, servers=(3,)),
                SlowNode(3, at=0.0, until=0.05, factor=0.25),
            )
        )

        async def scenario():
            async with LocalCluster(n_servers=4) as cluster:
                faults = cluster.faults
                driver = cluster.apply_fault_plan(plan, time_scale=1.0)
                await applied(driver, 5)
                cuts = [faults.cut(CLIENT, ("server", sid)) for sid in range(4)]
                # No traffic has drawn from the loss window's generator yet.
                draws = [faults.verdict(CLIENT, ("server", 2)) for _ in range(20)]
                delay = faults.verdict(CLIENT, ("server", 3))
                slowdowns = [s.slowdown for s in cluster.servers]
                await driver.wait()
                ended = (faults.active, [s.slowdown for s in cluster.servers])
                return cuts, draws, delay, slowdowns, ended

        cuts, draws, delay, slowdowns, ended = asyncio.run(scenario())
        assert cuts == [True, True, False, False]
        expected = np.random.default_rng(loss.seed).random(20) < loss.probability
        assert [d == DROP for d in draws] == list(expected)
        assert DROP in draws and 0.0 in draws
        assert delay == pytest.approx(0.001)
        assert slowdowns == [0.0, 0.0, 0.0, pytest.approx(3.0)]
        assert ended == (False, [0.0] * 4)

    def test_client_scoped_partition_cuts_the_runtime_client(self):
        # The runtime's clients are the plan's client 0.
        plan = FaultPlan((Partition(at=0.0, until=60.0, servers=(0,), clients=(0,)),))

        async def scenario():
            async with LocalCluster(n_servers=2, byte_rate=None) as cluster:
                client = cluster.client
                cut_key = next(f"k{i}" for i in range(100) if client.owner(f"k{i}") == 0)
                live_key = next(f"k{i}" for i in range(100) if client.owner(f"k{i}") == 1)
                await client.put(live_key, b"v")
                await applied(cluster.apply_fault_plan(plan), 1)
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(client.get(cut_key), 0.1)
                assert await client.get(live_key) == b"v"
                # A new connection to the cut server is closed at once.
                server = cluster.servers[0]
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                assert await reader.read() == b""
                writer.close()
                return server.stats()["faults"]

        assert asyncio.run(scenario()) == {
            "dropped": 1,
            "delayed": 0,
            "refused_connections": 1,
        }

    def test_crash_recover_round_trip(self):
        plan = FaultPlan((Crash(1, at=0.0), Recover(1, at=0.05)))

        async def scenario():
            async with LocalCluster(n_servers=2) as cluster:
                driver = cluster.apply_fault_plan(plan, time_scale=1.0)
                await driver.wait()
                # Server is back: a write to it must succeed.
                await cluster.client.put("probe", b"x")
                return await cluster.client.get("probe")

        assert asyncio.run(scenario()) == b"x"

    def test_slow_node_reply_delay_scales_with_value_size(self):
        # The sim slows the whole service (demand / factor); the runtime
        # approximation must therefore charge the full missing term
        # (1/f - 1) * (per_op_overhead + bytes / byte_rate) at the reply
        # boundary — not a fixed per-op constant that would let large
        # values through a "slow" node at full speed.
        factor = 0.5
        large = 4 << 20  # 4 MiB: per-byte term ~42 ms at 100 MB/s
        plan = FaultPlan((SlowNode(0, at=0.0, until=5.0, factor=factor),))
        slow = 1.0 / factor - 1.0

        async def scenario():
            async with LocalCluster(n_servers=1) as cluster:
                server = cluster.servers[0]
                await cluster.client.put("small", b"x" * 64)
                await cluster.client.put("large", b"x" * large)
                driver = cluster.apply_fault_plan(plan, time_scale=1.0)
                await applied(driver, 1)
                assert server.slowdown == pytest.approx(slow)
                assert server._slow_delay(Message("probe", 1, {})) == pytest.approx(
                    slow * server.per_op_overhead
                )
                assert server._slow_delay(
                    Message("get", 1, {"key": "large"})
                ) == pytest.approx(
                    slow * (server.per_op_overhead + large / server.byte_rate)
                )
                loop = asyncio.get_running_loop()
                t0 = loop.time()
                assert await cluster.client.get("small") == b"x" * 64
                small_elapsed = loop.time() - t0
                t0 = loop.time()
                assert len(await cluster.client.get("large")) == large
                large_elapsed = loop.time() - t0
                await driver.stop()
                return server.byte_rate, small_elapsed, large_elapsed

        byte_rate, small_elapsed, large_elapsed = asyncio.run(scenario())
        # Hard lower bound: the reply is held back at least the per-byte
        # term, so the large get cannot complete faster than that.
        assert large_elapsed >= slow * large / byte_rate
        assert large_elapsed > small_elapsed * 4

    def test_invalid_time_scale_rejected(self):
        async def scenario():
            async with LocalCluster(n_servers=2) as cluster:
                with pytest.raises(ValueError):
                    RuntimeFaultDriver(cluster, PLAN, time_scale=0.0)

        asyncio.run(scenario())

    def test_stop_cancels_a_running_plan(self):
        # Recovery is due 0.05 s in; the cluster stops before it.
        plan = FaultPlan((Crash(0, at=0.0), Recover(0, at=1.0)))

        async def scenario():
            cluster = await LocalCluster(n_servers=2).start()
            port = cluster.servers[0].port
            await applied(cluster.apply_fault_plan(plan, time_scale=0.05), 1)
            await cluster.stop()
            await asyncio.sleep(0.1)
            with pytest.raises(OSError):
                await asyncio.open_connection("127.0.0.1", port)

        asyncio.run(scenario())

    def test_one_plan_at_a_time(self):
        later = FaultPlan((Crash(1, at=0.0), Recover(1, at=0.01)))

        async def scenario():
            async with LocalCluster(n_servers=2) as cluster:
                first = cluster.apply_fault_plan(
                    FaultPlan((Pause(0, at=0.0, until=0.05),))
                )
                with pytest.raises(ConfigError):
                    cluster.apply_fault_plan(later)
                await first.wait()
                await cluster.apply_fault_plan(later).wait()
                return cluster.stats()["fault_plan"]["applied"]

        assert asyncio.run(scenario()) == later.timeline()
