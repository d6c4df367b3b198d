"""Structural check on a ``bench_engine.py`` perf record.

Usage: ``python benchmarks/check_perf_record.py /path/to/bench.json``

Asserts the record carries every schema field and passed its
parallel==sequential determinism check.  Deliberately NO wall-clock
assertions — CI runners are too noisy for timing gates; numbers are
compared by hand per docs/benchmarking.md.  (Named ``check_*`` rather
than ``bench_*`` on purpose: pytest collects ``bench_*.py`` modules.)
"""

import json
import sys


def main(path: str) -> None:
    with open(path, encoding="utf-8") as handle:
        record = json.load(handle)
    for key in (
        "sim_events_per_second",
        "sampling",
        "cell_end_to_end",
        "scenario_throughput",
    ):
        assert key in record, f"missing record key: {key}"
    for key in (
        "scalar_draws_per_second",
        "batched_draws_per_second",
        "batched_speedup",
    ):
        assert key in record["sampling"], f"missing sampling key: {key}"
    cell = record["cell_end_to_end"]
    for key in ("requests_per_second", "timeout_pool_hit_rate"):
        assert key in cell, f"missing cell key: {key}"
    scen = record["scenario_throughput"]
    for key in (
        "sequential_cells_per_second",
        "parallel_workers",
        "parallel_workers_requested",
        "parallel_timing_skipped",
        "cells_identical",
    ):
        assert key in scen, f"missing scenario key: {key}"
    if not scen["parallel_timing_skipped"]:
        # Timing keys exist only when a real multi-worker pool ran;
        # single-worker runs skip the parallel timing pass entirely.
        for key in ("parallel_cells_per_second", "speedup"):
            assert key in scen, f"missing scenario key: {key}"
    assert scen["cells_identical"] is True, "parallel != sequential"
    print("perf record schema OK; cells_identical =", scen["cells_identical"])


if __name__ == "__main__":
    main(sys.argv[1])
