"""BENCHMARK.json is spec.benchmark_json() written out, and obeys the contract's limits."""

import json
import re

from benchmarks.perf.harness import ROOT
from benchmarks.perf.spec import END_TO_END, LAYERS, PER_LAYER, WORKLOADS, benchmark_json

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def test_benchmark_json_matches_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        assert json.load(handle) == benchmark_json()


def test_names_units_and_limits():
    spec = benchmark_json()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert 2 <= len(spec["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert 1 <= spec["run_seconds"] <= 60
    assert len(json.dumps(spec)) < 64 * 1024


def test_every_layer_has_both_metrics():
    per_layer = {m.name for m in PER_LAYER}
    for layer in LAYERS:
        assert f"L.{layer}.self_us_per_req" in per_layer
        assert f"L.{layer}.calls_per_req" in per_layer
    assert len(WORKLOADS) == 4 and len(END_TO_END) == 7
