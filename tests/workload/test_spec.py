"""Tests for the declarative workload spec format (docs/workloads.md)."""

import json

import pytest

from repro.errors import WorkloadError
from repro.kvstore.config import ServiceConfig
from repro.sim.rand import as_batched
from repro.workload.arrivals import MMPPArrivals, PhasedArrivals, PoissonArrivals
from repro.workload.fanout import FixedFanout, GeometricFanout
from repro.workload.popularity import HotspotPopularity
from repro.workload.sizes import BimodalSize
from repro.workload.spec import (
    WorkloadSpec,
    _parse_toml_minimal,
    load_spec,
)

TOML = """
name = "test-spec"
description = "unit test"
load = 0.5
put_fraction = 0.1

[arrivals]
kind = "mmpp"
rates = [500.0, 2000.0]
dwell_means = [1.0, 0.25]

[fanout]
kind = "fixed"
k = 8

[sizes]
kind = "bimodal"
small = 512
large = 262144
p_large = 0.05

[popularity]
kind = "hotspot"
hot_fraction = 0.1
hot_probability = 0.9
"""


def write_spec(tmp_path, text, name="spec.toml"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoading:
    def test_toml_load_builds_generators(self, tmp_path):
        spec = load_spec(write_spec(tmp_path, TOML))
        assert spec.name == "test-spec"
        assert isinstance(spec.arrivals, MMPPArrivals)
        assert isinstance(spec.fanout, FixedFanout) and spec.fanout.k == 8
        assert isinstance(spec.sizes, BimodalSize)
        assert isinstance(spec.popularity, HotspotPopularity)
        assert spec.load == 0.5
        assert spec.put_fraction == 0.1

    def test_toml_json_equivalence(self, tmp_path):
        toml_spec = load_spec(write_spec(tmp_path, TOML))
        json_path = tmp_path / "spec.json"
        json_path.write_text(json.dumps(toml_spec.as_dict()))
        json_spec = load_spec(json_path)
        assert json_spec == toml_spec
        assert json_spec.fingerprint() == toml_spec.fingerprint()

    def test_fingerprint_tracks_content_not_formatting(self, tmp_path):
        a = load_spec(write_spec(tmp_path, TOML, "a.toml"))
        b = load_spec(write_spec(tmp_path, TOML + "\n# comment\n", "b.toml"))
        c = load_spec(
            write_spec(tmp_path, TOML.replace("load = 0.5", "load = 0.6"), "c.toml")
        )
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_minimal_spec_uses_defaults(self, tmp_path):
        spec = load_spec(write_spec(tmp_path, 'name = "tiny"\n'))
        assert spec.mode == "open"
        assert isinstance(spec.arrivals, PoissonArrivals)

    def test_unsupported_extension(self, tmp_path):
        with pytest.raises(WorkloadError, match="unsupported spec format"):
            load_spec(write_spec(tmp_path, TOML, "spec.yaml"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(WorkloadError, match="not found"):
            load_spec(tmp_path / "nope.toml")

    def test_invalid_json(self, tmp_path):
        with pytest.raises(WorkloadError, match="invalid JSON"):
            load_spec(write_spec(tmp_path, "{broken", "spec.json"))


class TestValidation:
    def from_dict(self, **overrides):
        data = {"name": "v"}
        data.update(overrides)
        return WorkloadSpec.from_dict(data)

    def test_missing_name(self):
        with pytest.raises(WorkloadError, match="non-empty string 'name'"):
            WorkloadSpec.from_dict({"mode": "open"})

    def test_unknown_top_level_key(self):
        with pytest.raises(WorkloadError, match="unknown spec key.*fanoot"):
            self.from_dict(fanoot={"kind": "fixed", "k": 1})

    def test_wrong_scalar_type(self):
        with pytest.raises(WorkloadError, match="put_fraction has wrong type"):
            self.from_dict(put_fraction="lots")

    def test_bad_mode(self):
        with pytest.raises(WorkloadError, match="mode must be 'open' or 'closed'"):
            self.from_dict(mode="half-open")

    def test_bad_load_range(self):
        with pytest.raises(WorkloadError, match=r"load must be in \(0, 1\]"):
            self.from_dict(load=1.5)

    def test_bad_put_fraction_range(self):
        with pytest.raises(WorkloadError, match=r"put_fraction must be in \[0, 1\]"):
            self.from_dict(put_fraction=2.0)

    def test_missing_component_kind(self):
        with pytest.raises(WorkloadError, match="sizes.kind is required"):
            self.from_dict(sizes={"median": 100.0})

    def test_unknown_component_kind(self):
        with pytest.raises(WorkloadError, match="unknown arrivals.kind 'weibull'"):
            self.from_dict(arrivals={"kind": "weibull"})

    def test_unknown_component_parameter(self):
        with pytest.raises(WorkloadError, match="unknown fanout parameter\\(s\\) depth"):
            self.from_dict(fanout={"kind": "fixed", "k": 2, "depth": 3})

    def test_component_value_validation_propagates(self):
        with pytest.raises(WorkloadError, match="invalid arrivals \\(poisson\\)"):
            self.from_dict(arrivals={"kind": "poisson", "rate": -1.0})

    def test_float_for_int_parameter_rejected(self):
        # Accepted, it drew fan-out 2 while mean() said 2.5, so `load`
        # calibration ran the cell at 80% of its stated load.
        with pytest.raises(
            WorkloadError, match=r"fanout \(fixed\) parameter k must be int, got 2.5"
        ):
            self.from_dict(fanout={"kind": "fixed", "k": 2.5})

    def test_bool_for_int_parameter_rejected(self):
        with pytest.raises(
            WorkloadError, match=r"sizes \(fixed\) parameter size must be int, got True"
        ):
            self.from_dict(sizes={"kind": "fixed", "size": True})

    def test_string_for_float_parameter_rejected(self):
        with pytest.raises(
            WorkloadError,
            match=r"fanout \(geometric\) parameter mean_target must be float, got '5'",
        ):
            self.from_dict(fanout={"kind": "geometric", "mean_target": "5"})

    def test_parameter_types_coerced(self):
        spec = self.from_dict(
            fanout={"kind": "geometric", "mean_target": 5, "cap": 64},
            arrivals={"kind": "phased", "phases": [[1, 200], [2.0, 600.0]]},
        )
        assert spec.fanout == GeometricFanout(mean_target=5.0, cap=64)
        assert type(spec.fanout.mean_target) is float
        assert spec.arrivals.phases == ((1.0, 200.0), (2.0, 600.0))
        with pytest.raises(WorkloadError, match="rates must be Tuple"):
            self.from_dict(arrivals={"kind": "mmpp", "rates": 5.0, "dwell_means": [1.0]})
        with pytest.raises(WorkloadError, match="phases must be Tuple"):
            self.from_dict(arrivals={"kind": "phased", "phases": [[1.0, "fast"]]})

    def test_trace_unknown_key(self):
        with pytest.raises(WorkloadError, match="unknown trace key.*loop"):
            self.from_dict(trace={"path": "t.csv", "loop": True})

    def test_trace_bad_format(self):
        with pytest.raises(WorkloadError, match="trace.format"):
            self.from_dict(trace={"path": "t.csv", "format": "parquet"})

    def test_trace_excludes_load(self):
        with pytest.raises(WorkloadError, match="mutually exclusive"):
            self.from_dict(load=0.5, trace={"path": "t.csv"})

    def test_closed_concurrency_positive(self):
        with pytest.raises(WorkloadError, match="closed_concurrency"):
            self.from_dict(mode="closed", closed_concurrency=0)


class TestCalibration:
    def test_load_calibration_scales_to_cluster(self):
        spec = WorkloadSpec(name="c", load=0.5, fanout=FixedFanout(k=4))
        service = ServiceConfig()
        small = spec.build_arrivals(n_servers=8, service=service)
        large = spec.build_arrivals(n_servers=16, service=service)
        assert large.mean_rate() == pytest.approx(2 * small.mean_rate())

    def test_calibration_preserves_shape(self):
        spec = WorkloadSpec(
            name="c",
            load=0.5,
            arrivals=MMPPArrivals(rates=(100.0, 400.0), dwell_means=(1.0, 1.0)),
        )
        out = spec.build_arrivals(n_servers=16, service=ServiceConfig())
        assert isinstance(out, MMPPArrivals)
        assert out.rates[1] == pytest.approx(4 * out.rates[0])

    def test_absolute_rates_pass_through(self):
        arrivals = PoissonArrivals(rate=123.0)
        spec = WorkloadSpec(name="c", arrivals=arrivals)
        assert spec.build_arrivals(n_servers=16, service=ServiceConfig()) is arrivals


class TestPhasedArrivals:
    def test_mean_rate_is_time_average(self):
        spec = PhasedArrivals(phases=((1.0, 100.0), (3.0, 300.0)))
        assert spec.mean_rate() == pytest.approx(250.0)

    def test_scaled_preserves_durations(self):
        spec = PhasedArrivals(phases=((1.0, 100.0), (2.0, 200.0))).scaled(2.0)
        assert spec.phases == ((1.0, 200.0), (2.0, 400.0))

    def test_validation(self):
        with pytest.raises(WorkloadError, match="at least one phase"):
            PhasedArrivals(phases=())
        with pytest.raises(WorkloadError, match="phase 1: rate"):
            PhasedArrivals(phases=((1.0, 100.0), (1.0, -5.0)))

    def test_sampler_respects_phase_rates(self):
        import numpy as np

        spec = PhasedArrivals(phases=((1.0, 50.0), (1.0, 500.0)))
        gap = spec.gaps(as_batched(np.random.default_rng(0)))
        t, count = 0.0, 0
        while t < 200.0:
            t += gap(t)
            count += 1
        # Long-run average ~275/s over the 2 s cycle.
        assert count / t == pytest.approx(275.0, rel=0.1)


class TestMinimalTomlParser:
    def test_matches_tomllib_on_spec_subset(self):
        tomllib = pytest.importorskip("tomllib")
        assert _parse_toml_minimal(TOML, "t") == tomllib.loads(TOML)

    def test_multiline_arrays(self):
        text = 'name = "x"\n[arrivals]\nkind = "phased"\nphases = [\n  [1.0, 100.0],\n  [2.0, 300.0],\n]\n'
        parsed = _parse_toml_minimal(text, "t")
        assert parsed["arrivals"]["phases"] == [[1.0, 100.0], [2.0, 300.0]]

    def test_inline_comments_stripped(self):
        parsed = _parse_toml_minimal('name = "x"  # trailing\n', "t")
        assert parsed == {"name": "x"}

    def test_hash_inside_string_kept(self):
        parsed = _parse_toml_minimal('name = "a#b"\n', "t")
        assert parsed == {"name": "a#b"}

    def test_errors_name_line(self):
        with pytest.raises(WorkloadError, match="t:2"):
            _parse_toml_minimal('name = "x"\nbroken line\n', "t")
