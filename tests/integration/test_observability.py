"""Acceptance tests for the observability layer.

Both halves of the system — the simulator's experiment runner and the
asyncio runtime under chaos — must produce metrics snapshots (JSON and
Prometheus text) whose DAS gauges equal the queues' internal truth at
snapshot time, plus sampled request traces whose tag → enqueue →
service → reply timestamps are monotone.
"""

import asyncio
import dataclasses
import json

import pytest

from repro.experiments.runner import run_scenario, write_observability_artifacts
from repro.experiments.scenarios import get_scenario
from repro.kvstore.cluster import Cluster
from repro.kvstore.config import ClusterConfig, SimulationConfig
from repro.obs import RequestTrace, Tracer
from repro.faults.plan import DelaySpike
from repro.runtime import LocalCluster

from tests.conftest import end_window_at


def _das_gauge(snapshot, name, server):
    return snapshot["metrics"]["gauges"][f'{name}{{server="{server}"}}']


class TestSimulatorObservability:
    def run_cluster(self, **cfg_kwargs):
        cfg = ClusterConfig(scheduler="das", n_servers=4, **cfg_kwargs)
        cluster = Cluster(cfg, tracer=Tracer(sample_rate=1.0))
        result = cluster.run(SimulationConfig(max_requests=300))
        return cluster, result

    def test_das_gauges_match_queue_internal_truth(self):
        cluster, result = self.run_cluster()
        snap = result.metrics_snapshot()
        for sid, server in cluster.servers.items():
            queue = server.queue
            assert _das_gauge(snap, "das_k", sid) == queue.k
            assert _das_gauge(snap, "das_queue_pressure", sid) == queue.queue_pressure
            assert _das_gauge(snap, "das_front_length", sid) == queue.front_length
            assert _das_gauge(snap, "das_last_length", sid) == queue.last_length
            assert _das_gauge(snap, "das_demotions_total", sid) == queue.demotions
            assert _das_gauge(snap, "das_promotions_total", sid) == queue.promotions
            assert _das_gauge(snap, "das_threshold", sid) == pytest.approx(
                queue.threshold
            )

    def test_traces_cover_request_lifecycle_monotonically(self):
        cluster, result = self.run_cluster()
        traces = cluster.tracer.traces
        assert traces, "sample_rate=1 run must trace every request"
        for trace in traces:
            assert trace.ops, "every multiget has at least one operation"
            assert trace.monotone(), (
                f"non-monotone trace for request {trace.request_id}"
            )
        # Spans carry the scheduler's band decision.
        bands = {span.band for t in traces for span in t.ops}
        assert bands <= {"front", "last"}
        assert "front" in bands

    def test_experiment_artifacts_written_next_to_results(self, tmp_path):
        scenario = get_scenario("E1", scale=0.02)
        das = [s for s in scenario.schedulers if s.label == "DAS"]
        scenario = dataclasses.replace(
            scenario, points=scenario.points[:1], schedulers=tuple(das)
        )
        result = run_scenario(scenario)
        paths = write_observability_artifacts(result, tmp_path)
        assert sorted(p.name for p in paths) == [
            "E1.metrics.json",
            "E1.metrics.prom",
        ]
        data = json.loads((tmp_path / "E1.metrics.json").read_text())
        assert data["experiment_id"] == "E1"
        cell = data["cells"][0]
        assert cell["scheduler"] == "DAS"
        assert any(k.startswith("das_k{") for k in cell["metrics"]["gauges"])
        prom = (tmp_path / "E1.metrics.prom").read_text()
        assert prom.count("# TYPE das_k gauge") == 1
        assert 'scheduler="DAS"' in prom


class TestRuntimeObservability:
    def test_chaos_run_snapshot_matches_queue_truth(self):
        async def scenario():
            async with LocalCluster(
                n_servers=2, scheduler="das", trace_sample_rate=1.0
            ) as cluster:
                await cluster.preload(
                    {f"key{i}": bytes(64) for i in range(16)}
                )
                # Chaos: one server delays replies while the other takes
                # a crash/restart, with traffic continuing throughout.
                spike = DelaySpike(at=0.0, until=60.0, extra=0.01, servers=(1,))
                cluster.faults.start(spike)
                closer = asyncio.create_task(
                    end_window_at(cluster.faults, spike, cluster.servers[1], "delayed", 4)
                )
                for i in range(12):
                    await cluster.client.multiget([f"key{i}", f"key{i + 4}"])
                await closer
                await cluster.crash(0)
                await cluster.restart(0)
                await cluster.client.multiget(["key0", "key1"])

                snap = cluster.metrics_snapshot()
                text = cluster.metrics_text()
                for server in cluster.servers:
                    queue = server.executor.queue
                    sid = server.server_id
                    assert _das_gauge(snap, "das_k", sid) == queue.k
                    assert (
                        _das_gauge(snap, "das_front_length", sid)
                        == queue.front_length
                    )
                    assert (
                        _das_gauge(snap, "das_last_length", sid)
                        == queue.last_length
                    )
                    assert (
                        _das_gauge(snap, "das_demotions_total", sid)
                        == queue.demotions
                    )
                # Counters survived the crash/restart (shared registry).
                assert snap["metrics"]["counters"][
                    'server_crashes_total{server="0"}'
                ] == 1.0
                # Prometheus text is one valid scrape: a single TYPE line
                # per metric name even with two servers' label sets.
                assert text.count("# TYPE das_k gauge") == 1
                assert text.count("# TYPE executor_ops_total counter") == 1
                json.dumps(snap)  # JSON-able end to end
                return snap

        snap = asyncio.run(scenario())
        assert snap["trace_sampled"] > 0

    def test_runtime_trace_spans_are_monotone(self):
        async def scenario():
            async with LocalCluster(
                n_servers=2, scheduler="das", trace_sample_rate=1.0
            ) as cluster:
                await cluster.client.put("a", b"x" * 32)
                await cluster.client.put("b", b"y" * 32)
                for _ in range(5):
                    await cluster.client.multiget(["a", "b"])
                traces = cluster.tracer.traces
                assert traces
                with_spans = [t for t in traces if t.ops]
                assert with_spans, "sampled requests must carry server spans"
                for trace in with_spans:
                    assert isinstance(trace, RequestTrace)
                    assert trace.monotone()
                    for span in trace.ops:
                        assert span.band in {"front", "last"}

        asyncio.run(scenario())

    def test_stats_wire_message(self):
        async def scenario():
            async with LocalCluster(n_servers=2, scheduler="das") as cluster:
                await cluster.client.put("k", b"v")
                stats = await cluster.client.server_stats(0)
                assert stats["ops_served"] >= 1
                assert "metrics" in stats
                assert any(
                    name.startswith("das_k{")
                    for name in stats["metrics"]["gauges"]
                )

        asyncio.run(scenario())
