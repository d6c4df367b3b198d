"""Tiny-size smoke of every workload's trial, timed and traced."""

import dataclasses
import time

import pytest

from benchmarks.perf import harness
from benchmarks.perf.rtload import Outcome, Request, _issue, canonical_value
from benchmarks.perf.spec import END_TO_END, PER_LAYER, WORKLOADS
from benchmarks.perf.trials import run_trial

TINY = {"sim-cell-16": 1500, "sim-fleet-256": 600, "rt-get-small": 120, "rt-mixed-open": 120}


@pytest.fixture(scope="module")
def records():
    """One timed and one traced tiny trial per workload, seed 3."""
    out = {}
    for name, requests in TINY.items():
        workload = dataclasses.replace(WORKLOADS[name], requests=requests, warmup=20)
        out[name] = [
            run_trial(workload, 3, time.perf_counter(), traced=traced)
            for traced in (False, True)
        ]
    return out


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_trial_emits_every_end_to_end_metric(records, name):
    timed, _ = records[name]
    assert set(timed["metrics"]) == {m.name for m in END_TO_END}
    assert all(value > 0 for value in timed["metrics"].values())
    assert timed["attempted"] == TINY[name] and timed["failed"] == 0
    assert timed["errors"] == [] and timed["layers"] is None
    assert harness.violations(name, records[name]) == []


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_emitted_per_layer_names_are_the_listed_ones(records, name):
    values = harness.per_layer(records[name][:1], records[name][1:])
    assert list(values) == [m.name for m in PER_LAYER]
    self_us = [v for k, v in values.items() if k.endswith(".self_us_per_req")]
    assert all(v >= 0 for v in self_us) and sum(self_us) > 0
    assert values["C.trace_overhead_x"] > 1.0


def test_sim_digest_repeats_and_tracks_the_seed(records):
    timed, traced = records["sim-cell-16"]
    workload = dataclasses.replace(WORKLOADS["sim-cell-16"], requests=TINY["sim-cell-16"])
    again = run_trial(workload, 3, time.perf_counter())
    other = run_trial(workload, 4, time.perf_counter())
    # Profiling must not change what the simulator computes.
    assert timed["sim_digest"] == traced["sim_digest"] == again["sim_digest"]
    assert other["sim_digest"] != timed["sim_digest"]
    assert records["rt-get-small"][0]["sim_digest"] is None
    mismatch = [timed, dict(other, traced=False)]
    assert any("sim_digest" in v for v in harness.violations("sim-cell-16", mismatch))


def test_bypass_predictions_hold_even_at_tiny_size(records):
    cell = records["sim-cell-16"][1]["layers"]
    fleet = records["sim-fleet-256"][1]["layers"]
    assert cell["L.selection.calls_per_req"] == 0 and cell["L.asyncio.calls_per_req"] == 0
    # (Too short for the first 10 ms load report, so no control messages yet.)
    assert fleet["L.selection.calls_per_req"] > 0
    assert cell["C.kernel_events_per_req"] > 5 and cell["C.net_msgs_per_req"] > 2
    small = records["rt-get-small"][1]["layers"]
    assert small["L.sim.core.calls_per_req"] == 0 and small["L.asyncio.calls_per_req"] > 0
    assert small["C.wire_msgs_per_req"] > 2 and small["C.wire_bytes_per_req"] > 8 * 256
    assert small["C.executor_ops_per_req"] == 8
    assert small["S.encode_us_per_req"] > 0 and small["S.service_us_p50"] > 0
    assert records["rt-mixed-open"][0]["timed"]["C.gen_late_p99_ms"] > 0


def test_sim_trials_repeat_the_seed_and_runtime_trials_draw_new_plans():
    assert {harness.trial_seed("sim-cell-16", 7, i) for i in range(5)} == {7}
    assert len({harness.trial_seed("rt-mixed-open", 7, i) for i in range(5)}) == 5
    assert harness.trial_seed("rt-get-small", 7, 3) != harness.trial_seed("rt-get-small", 8, 3)


def test_wrong_value_and_raised_error_count_as_failures():
    import asyncio

    values = {"k": canonical_value(1, "k", 64), "j": canonical_value(1, "j", 64)}
    assert values["k"] != values["j"] and values["k"] != canonical_value(2, "k", 64)

    class SwappedClient:
        async def multiget(self, keys):
            return {"k": values["j"]}

        async def put(self, key, value):
            raise ConnectionError("gone")

    async def drive():
        out = Outcome()
        await _issue(SwappedClient(), Request(0.0, ("k",)), values, time.perf_counter(), out)
        await _issue(SwappedClient(), Request(0.0, ("k",), put=True), values, time.perf_counter(), out)
        return out

    out = asyncio.run(drive())
    assert (out.attempted, out.failed, out.rcts) == (2, 2, [])
    assert "wrong or missing value" in out.first_error
