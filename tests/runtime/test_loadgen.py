"""Tests for the runtime load generator."""

import asyncio
import time

import pytest

from repro.errors import ConfigError
from repro.runtime import LocalCluster
from repro.runtime.loadgen import LoadGenerator
from repro.workload.arrivals import DeterministicArrivals, PoissonArrivals
from repro.workload.fanout import FixedFanout
from repro.workload.popularity import UniformPopularity


def run(coro):
    return asyncio.run(coro)


async def make_cluster_and_keys(n_servers=2, n_keys=50):
    cluster = LocalCluster(n_servers=n_servers, scheduler="das", byte_rate=None)
    await cluster.start()
    items = {f"key:{i:04d}": b"v" * 64 for i in range(n_keys)}
    await cluster.preload(items)
    return cluster, list(items)


class TestLoadGenerator:
    def test_fires_requested_count(self):
        async def scenario():
            cluster, keys = await make_cluster_and_keys()
            try:
                gen = LoadGenerator(
                    cluster.client, keys,
                    arrivals=DeterministicArrivals(rate=500.0),
                    fanout=FixedFanout(k=3),
                    popularity=UniformPopularity(),
                )
                result = await gen.run(n_requests=40)
                assert result.launched == 40
                assert len(result.latencies) == 40
                assert result.errors == 0
                assert result.summary().mean > 0
                assert result.throughput > 0
            finally:
                await cluster.stop()

        run(scenario())

    def test_duration_bound(self):
        async def scenario():
            cluster, keys = await make_cluster_and_keys()
            try:
                gen = LoadGenerator(
                    cluster.client, keys,
                    arrivals=DeterministicArrivals(rate=200.0),
                    fanout=FixedFanout(k=2),
                    popularity=UniformPopularity(),
                )
                result = await gen.run(duration=0.1)
                # ~200/s for 0.1s: about 20 launches, bounded either side.
                assert 10 <= result.launched <= 25
            finally:
                await cluster.stop()

        run(scenario())

    def test_exactly_one_stopping_rule(self):
        async def scenario():
            cluster, keys = await make_cluster_and_keys()
            try:
                gen = LoadGenerator(
                    cluster.client, keys,
                    arrivals=PoissonArrivals(rate=100.0),
                    fanout=FixedFanout(k=1),
                    popularity=UniformPopularity(),
                )
                with pytest.raises(ConfigError):
                    await gen.run()
                with pytest.raises(ConfigError):
                    await gen.run(n_requests=5, duration=1.0)
            finally:
                await cluster.stop()

        run(scenario())

    def test_validation(self):
        async def scenario():
            cluster, keys = await make_cluster_and_keys(n_keys=2)
            try:
                with pytest.raises(ConfigError, match="fanout"):
                    LoadGenerator(
                        cluster.client, keys,
                        arrivals=PoissonArrivals(rate=10.0),
                        fanout=FixedFanout(k=5),
                        popularity=UniformPopularity(),
                    )
                with pytest.raises(ConfigError, match="empty"):
                    LoadGenerator(
                        cluster.client, [],
                        arrivals=PoissonArrivals(rate=10.0),
                        fanout=FixedFanout(k=1),
                        popularity=UniformPopularity(),
                    )
            finally:
                await cluster.stop()

        run(scenario())

    def test_closed_loop_fires_requested_count(self):
        async def scenario():
            cluster, keys = await make_cluster_and_keys()
            try:
                gen = LoadGenerator(
                    cluster.client, keys,
                    arrivals=PoissonArrivals(rate=1.0),  # ignored in closed mode
                    fanout=FixedFanout(k=2),
                    popularity=UniformPopularity(),
                    mode="closed",
                    closed_concurrency=3,
                )
                result = await gen.run(n_requests=30)
                assert result.launched == 30
                assert len(result.latencies) == 30
                assert result.errors == 0
            finally:
                await cluster.stop()

        run(scenario())

    def test_mode_validation(self):
        async def scenario():
            cluster, keys = await make_cluster_and_keys()
            try:
                with pytest.raises(ConfigError, match="mode"):
                    LoadGenerator(
                        cluster.client, keys,
                        arrivals=PoissonArrivals(rate=10.0),
                        fanout=FixedFanout(k=1),
                        popularity=UniformPopularity(),
                        mode="half-open",
                    )
                with pytest.raises(ConfigError, match="closed_concurrency"):
                    LoadGenerator(
                        cluster.client, keys,
                        arrivals=PoissonArrivals(rate=10.0),
                        fanout=FixedFanout(k=1),
                        popularity=UniformPopularity(),
                        mode="closed",
                        closed_concurrency=0,
                    )
            finally:
                await cluster.stop()

        run(scenario())


    def test_deterministic_given_seed(self):
        async def scenario():
            cluster, keys = await make_cluster_and_keys()
            try:
                def build():
                    return LoadGenerator(
                        cluster.client, keys,
                        arrivals=PoissonArrivals(rate=1000.0),
                        fanout=FixedFanout(k=2),
                        popularity=UniformPopularity(),
                        seed=9,
                    )

                a = build()
                b = build()
                # The draws replay identically: same fan-outs and keys.
                draws_a = [a._next_keys() for _ in range(5)]
                draws_b = [b._next_keys() for _ in range(5)]
                assert draws_a == draws_b
            finally:
                await cluster.stop()

        run(scenario())

    def test_open_loop_latency_includes_lateness(self):
        """A request launched late is timed from when it was due: the
        generator's own lateness is latency, not hidden."""
        gap = 1e-3

        class BlockingClient:
            """Answers at once, except the first call blocks the loop."""

            def __init__(self):
                self.called_at = []

            async def multiget(self, keys):
                self.called_at.append(time.monotonic())
                if len(self.called_at) == 1:
                    time.sleep(0.05)
                return {}

        async def scenario():
            client = BlockingClient()
            gen = LoadGenerator(
                client, [f"k{i}" for i in range(10)],
                arrivals=DeterministicArrivals(rate=1.0 / gap),
                fanout=FixedFanout(k=1),
                popularity=UniformPopularity(),
            )
            before = time.monotonic()
            result = await gen.run(n_requests=100)
            return client, before, result

        client, before, result = run(scenario())
        # Calls finish without awaiting, so latencies are in call order.
        assert len(result.latencies) == len(client.called_at) == 100
        # Request i fell due no earlier than before + (i + 1) * gap.
        lateness = [
            called - (before + (i + 1) * gap)
            for i, called in enumerate(client.called_at)
        ]
        late = [i for i, x in enumerate(lateness) if x > 0.01]
        assert len(late) >= 20
        for i in late:
            assert result.latencies[i] >= lateness[i] - 2e-3


class TestFromSpec:
    def test_builds_from_registry_spec(self):
        async def scenario():
            from repro.workload.registry import workload

            cluster, keys = await make_cluster_and_keys(n_keys=100)
            try:
                spec = workload("closed-loop")
                gen = LoadGenerator.from_spec(cluster.client, keys, spec)
                assert gen.mode == "closed"
                assert gen.closed_concurrency == spec.closed_concurrency
                result = await gen.run(n_requests=16)
                assert len(result.latencies) == 16
            finally:
                await cluster.stop()

        run(scenario())

    def test_trace_spec_rejected(self):
        async def scenario():
            from repro.errors import WorkloadError
            from repro.workload.registry import workload

            cluster, keys = await make_cluster_and_keys()
            try:
                with pytest.raises(WorkloadError, match="simulator only"):
                    LoadGenerator.from_spec(
                        cluster.client, keys, workload("trace-sample")
                    )
            finally:
                await cluster.stop()

        run(scenario())
