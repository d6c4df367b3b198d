"""Selection policies driven through the simulator, including determinism.

The X3 acceptance property — estimate/probe-driven policies beat the
load-oblivious ones on a degraded fleet — is asserted at full scale by
``benchmarks/bench_x3_selection.py``; here we assert the wiring:
policies receive the signals they declare, selection stats surface
through the cluster, and the parallel experiment engine reproduces the
sequential cells bit-for-bit for every policy (cells_identical).
"""

import dataclasses

from repro.experiments.parallel import run_scenario_parallel
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import get_scenario
from repro.kvstore.cluster import Cluster
from repro.kvstore.config import SimulationConfig

from tests.conftest import small_config


def run_small(selection, n_servers=4, rf=3, requests=400, **overrides):
    config = small_config(
        scheduler="das",
        n_servers=n_servers,
        replication_factor=rf,
        replica_selection=selection,
        **overrides,
    )
    cluster = Cluster(config)
    result = cluster.run(SimulationConfig(max_requests=requests))
    return cluster, result


class TestSimWiring:
    def test_every_policy_completes_all_requests(self):
        for selection in (
            "primary", "random", "round_robin", "least_estimated_work",
            "power_of_d", "c3", "tars", "prequal",
        ):
            _, result = run_small(selection, requests=200)
            assert result.requests_completed == result.requests_sent

    def test_selection_stats_surface(self):
        cluster, _ = run_small("tars")
        stats = cluster.selection_stats()
        assert set(stats) == {0, 1}  # one entry per client
        for per_client in stats.values():
            assert per_client["policy"] == "tars"
            assert per_client["decisions"] > 0

    def test_prequal_pool_fed_by_piggyback_feedback(self):
        cluster, _ = run_small("prequal")
        for client in cluster.clients:
            assert client.placement.policy.probes_added > 0

    def test_non_primary_spreads_reads(self):
        cluster, _ = run_small("round_robin")
        picks = cluster.clients[0].placement.policy.picks
        assert len(picks) > 1

    def test_primary_policy_tracks_nothing(self):
        cluster, _ = run_small("primary")
        placement = cluster.clients[0].placement
        assert not placement.wants_inflight
        assert not placement.wants_feedback
        assert placement.policy.inflight == {}


class TestX5SimWiring:
    def test_dodoor_reports_counted_not_probes(self):
        cluster, result = run_small("dodoor", load_report_interval=1e-3)
        assert result.requests_completed == result.requests_sent
        for per_client in cluster.selection_stats().values():
            control = per_client["control_plane"]
            assert control["messages_sent"]["report"] > 0
            assert control["messages_sent"]["probe"] == 0
            assert per_client["reports_cached"] > 0

    def test_dodoor_defaults_reporter_from_policy_needs(self):
        # No explicit load_report_interval: the cluster must still start
        # the periodic broadcaster because the policy declares
        # wants_load_reports.
        cluster, _ = run_small("dodoor")
        for per_client in cluster.selection_stats().values():
            assert per_client["control_plane"]["messages_sent"]["report"] > 0

    def test_prequal_probe_roundtrips_counted(self):
        cluster, _ = run_small("prequal", probes_per_request=2)
        for per_client in cluster.selection_stats().values():
            control = per_client["control_plane"]
            probes = control["messages_sent"]["probe"]
            assert probes > 0
            assert probes % 2 == 0  # each probe is a two-message round trip
            assert control["messages_sent"]["report"] == 0

    def test_piggyback_feedback_costs_bytes_not_messages(self):
        cluster, _ = run_small("tars")
        for per_client in cluster.selection_stats().values():
            control = per_client["control_plane"]
            assert control["messages_sent"]["feedback"] == 0
            assert control["bytes_sent"]["feedback"] > 0

    def test_tenants_partition_client_keyspaces(self):
        from repro.workload.popularity import PartitionedPopularity

        cluster, result = run_small("random", tenants=2)
        assert result.requests_completed == result.requests_sent
        for cid, client in enumerate(cluster.clients):
            popularity = client.factory.spec.popularity
            assert isinstance(popularity, PartitionedPopularity)
            assert popularity.tenant == cid % 2
            assert popularity.tenants == 2


class TestX5Determinism:
    def test_parallel_matches_sequential_on_x5_cells(self):
        """X5 cells must satisfy cells_identical.

        Trimmed to the smallest fleet's report-fed and probe-fed cells so
        the test stays fast; the full grid runs through the same gate in
        ``benchmarks/bench_x5_scaleout.py``.
        """
        scenario = get_scenario("X5", scale=0.02)
        keep = [
            p for p in scenario.points
            if p.x in ("128s/dodoor", "128s/prequal")
        ]
        assert len(keep) == 2
        trimmed = dataclasses.replace(scenario, points=tuple(keep))
        sequential = run_scenario(trimmed)
        parallel = run_scenario_parallel(trimmed, workers=2)
        assert set(parallel.cells) == set(sequential.cells)
        for key, seq_cell in sequential.cells.items():
            par_cell = parallel.cells[key]
            assert par_cell.summary == seq_cell.summary
            assert par_cell.requests == seq_cell.requests


class TestX3Determinism:
    def test_parallel_matches_sequential_on_x3_cells(self):
        """cells_identical must hold for the selection scenario too.

        Trimmed to two policies (one rng-driven, one probe-driven — the
        hardest cases for determinism) at smoke scale so the test stays
        fast; the engine uses the same worker pool machinery at any
        ``--workers`` count.
        """
        scenario = get_scenario("X3", scale=0.02)
        keep = [p for p in scenario.points if p.x in ("power_of_d", "prequal")]
        assert len(keep) == 2
        trimmed = dataclasses.replace(scenario, points=tuple(keep))
        sequential = run_scenario(trimmed)
        parallel = run_scenario_parallel(trimmed, workers=2)
        assert set(parallel.cells) == set(sequential.cells)
        for key, seq_cell in sequential.cells.items():
            par_cell = parallel.cells[key]
            assert par_cell.summary == seq_cell.summary
            assert par_cell.requests == seq_cell.requests
