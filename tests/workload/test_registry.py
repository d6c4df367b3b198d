"""Tests for the bundled workload registry: every spec must round-trip."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.kvstore.cluster import Cluster
from repro.kvstore.config import ClusterConfig, ServiceConfig, SimulationConfig
from repro.sim.rand import as_batched
from repro.workload.registry import (
    BUNDLED_SPECS_DIR,
    SAMPLE_TRACE,
    list_workloads,
    resolve_workload,
    workload,
)

#: The registry contract from the workload-spec issue: at least eight
#: bundled named specs, including a Pareto heavy-tail and an MMPP burst.
REQUIRED_SPECS = {
    "baseline",
    "uniform",
    "bimodal-fanout",
    "hotspot",
    "pareto-heavytail",
    "x4-large-values",
    "single-get",
    "mmpp-burst",
}


class TestRegistry:
    def test_at_least_eight_bundled_specs(self):
        names = list_workloads()
        assert len(names) >= 8
        assert REQUIRED_SPECS <= set(names)

    def test_sample_trace_is_bundled(self):
        assert SAMPLE_TRACE.exists()

    def test_unknown_name_lists_registry(self):
        with pytest.raises(WorkloadError, match="unknown workload.*baseline"):
            workload("not-a-workload")

    def test_resolve_accepts_paths(self):
        by_name = workload("baseline")
        by_path = resolve_workload(str(BUNDLED_SPECS_DIR / "baseline.toml"))
        assert by_path == by_name

    def test_names_match_filenames(self):
        for name in list_workloads():
            assert workload(name).name == name

    def test_lookup_is_cached(self):
        assert workload("baseline") is workload("baseline")


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(REQUIRED_SPECS | {"phased-ramp"}))
    def test_spec_builds_generators(self, name):
        spec = workload(name)
        rng = np.random.default_rng(0)
        gap = spec.build_arrivals(
            n_servers=8, service=ServiceConfig()
        ).gaps(as_batched(rng))
        assert gap(0.0) >= 0.0
        assert spec.fanout.draw(as_batched(rng), 1)[0] >= 1
        assert spec.sizes.draw(as_batched(rng), 1)[0] >= 0
        assert len(spec.popularity.build(100, rng).sample_block([1])) == 1

    @pytest.mark.parametrize("name", sorted(list_workloads()))
    def test_smoke_cell(self, name):
        """Every bundled spec must drive a small cluster run end to end."""
        cfg = ClusterConfig(
            workload=name, n_servers=8, n_clients=2, keyspace_size=2000, seed=3
        )
        result = Cluster(cfg).run(SimulationConfig(max_requests=200))
        assert result.collector.rcts(0.0).size > 0
        assert cfg.workload_fingerprint == workload(name).fingerprint()


class TestConfigResolution:
    def test_spec_overwrites_generator_fields(self):
        cfg = ClusterConfig(workload="x4-large-values", n_servers=8)
        assert cfg.fanout.k == 8
        assert cfg.sizes.p_large == 0.05

    def test_closed_loop_spec_sets_mode(self):
        cfg = ClusterConfig(workload="closed-loop", n_servers=8)
        assert cfg.closed_loop is True
        assert cfg.closed_concurrency == 8

    def test_trace_spec_materializes_records(self):
        cfg = ClusterConfig(workload="trace-sample", n_servers=8)
        assert cfg.trace is not None and len(cfg.trace) == 240
        # Remapped onto the simulator's canonical keyspace names.
        assert all(k.startswith("key:") for r in cfg.trace for k in r.keys)
        # Rescaled onto the spec's 4-second window.
        assert cfg.trace[-1].t == pytest.approx(4.0)

    def test_spec_keyspace_overrides_config(self):
        cfg = ClusterConfig(workload="trace-sample", n_servers=8, keyspace_size=77)
        assert cfg.keyspace_size == 10_000  # the spec pins it

    def test_load_calibration_uses_cluster_size(self):
        small = ClusterConfig(workload="baseline", n_servers=8)
        large = ClusterConfig(workload="baseline", n_servers=16)
        assert large.arrivals.mean_rate() == pytest.approx(
            2 * small.arrivals.mean_rate()
        )

    def test_fingerprint_lands_in_repr(self):
        """The parallel engine fingerprints repr(config); the spec hash
        must be inside it so checkpoint cells invalidate on spec change."""
        cfg = ClusterConfig(workload="baseline", n_servers=8)
        assert cfg.workload_fingerprint in repr(cfg)
