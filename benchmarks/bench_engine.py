"""Experiment-engine benchmark: emits the ``BENCH_engine.json`` perf record.

Measures the numbers that bound experiment throughput (see
``docs/benchmarking.md``):

* **sim events/sec** — kernel throughput through the ``Environment``
  (timeout schedule/fire cycles) plus an end-to-end cell rate
  (simulated requests/sec through a full cluster), the quantities the
  hot-path work in ``repro.sim`` / ``repro.kvstore.items`` targets;
* **cells/sec, sequential vs N workers** — the parallel engine's fan-out
  gain on a multi-cell scenario, with a cell-for-cell equality check
  against the sequential runner (the determinism guarantee).

Run from the repository root::

    python benchmarks/bench_engine.py                 # writes BENCH_engine.json
    python benchmarks/bench_engine.py --workers 8     # different pool size
    python benchmarks/bench_engine.py --out other.json --scale 0.05

Compare two commits by running the script on each and diffing the JSON
records; fields are flat numbers on purpose.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro._version import __version__
from repro.experiments.parallel import run_scenario_parallel
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import get_scenario
from repro.sim.core import Environment
from repro.sim.rand import BatchedStream

#: Experiment the cells/sec comparison runs (small grid, mixed schedulers).
SCENARIO_ID = "E2"


def measure_kernel_events(n: int = 200_000, repeats: int = 3) -> float:
    """Timeout schedule/fire cycles per second of the DES kernel (best of N).

    Uses :meth:`Environment.pooled_timeout` — the factory every internal
    hot path (network delivery, service waits, interarrival gaps) goes
    through — so the number reflects the simulator's real event cost.
    """
    best = 0.0
    for _ in range(repeats):
        env = Environment()

        def proc():
            for _ in range(n):
                yield env.pooled_timeout(1.0)

        env.process(proc())
        t0 = time.perf_counter()
        env.run()
        best = max(best, n / (time.perf_counter() - t0))
    return best


def measure_sampling(n: int = 500_000, repeats: int = 3) -> dict:
    """Scalar vs batched draw throughput of the sampling layer (best of N).

    Both legs draw from the same distribution (unit exponential) with the
    same bit stream, so the ratio isolates the per-call overhead the
    :class:`~repro.sim.rand.BatchedStream` prefetch removes.
    """
    scalar_best = 0.0
    for _ in range(repeats):
        rng = np.random.default_rng(7)
        t0 = time.perf_counter()
        for _ in range(n):
            rng.exponential(1.0)
        scalar_best = max(scalar_best, n / (time.perf_counter() - t0))
    batched_best = 0.0
    for _ in range(repeats):
        stream = BatchedStream(np.random.default_rng(7))
        t0 = time.perf_counter()
        for _ in range(n):
            stream.exponential(1.0)
        batched_best = max(batched_best, n / (time.perf_counter() - t0))
    return {
        "draws": n,
        "scalar_draws_per_second": scalar_best,
        "batched_draws_per_second": batched_best,
        "batched_speedup": batched_best / scalar_best,
    }


def measure_cell_requests(scale: float, repeats: int = 3) -> dict:
    """Simulated requests/sec through one full cluster cell (best of N).

    Builds the cluster directly (rather than via ``run_cell``) so the
    record can include the environment's timeout-pool hit rate.  Best-of
    like the kernel number: a cell is a sub-second run, so a single shot
    mostly measures scheduler noise on a shared machine.
    """
    from repro.kvstore.cluster import Cluster

    scenario = get_scenario("E1", scale=scale)
    point, scheduler = scenario.points[0], scenario.schedulers[-1]
    config = dataclasses.replace(
        point.config, scheduler=scheduler.name, scheduler_params=dict(scheduler.params)
    )
    best: dict = {}
    for _ in range(repeats):
        t0 = time.perf_counter()
        cluster = Cluster(config)
        result = cluster.run(point.sim)
        wall = time.perf_counter() - t0
        record = {
            "requests": result.requests_completed,
            "wall_seconds": wall,
            "requests_per_second": result.requests_completed / wall,
        }
        record.update(cluster.env.pool_stats())
        if not best or record["requests_per_second"] > best["requests_per_second"]:
            best = record
    return best


def measure_scenario(scale: float, workers: int) -> dict:
    """Cells/sec sequential vs parallel on the comparison scenario."""
    scenario = get_scenario(SCENARIO_ID, scale=scale)
    n_cells = len(scenario.points) * len(scenario.schedulers)
    # The pool never uses more workers than there are cells; record what
    # actually ran so the speedup number is interpretable.
    effective_workers = min(workers, n_cells)
    timing_skipped = effective_workers <= 1

    t0 = time.perf_counter()
    seq = run_scenario(scenario)
    seq_wall = time.perf_counter() - t0

    if timing_skipped:
        # A one-worker pool cannot beat the sequential runner, so a timed
        # parallel pass would only publish a slower-than-sequential number
        # that misreads as a regression.  Run the parallel engine untimed
        # purely for the determinism check.
        par = run_scenario_parallel(scenario, workers=workers)
        par_wall = None
    else:
        t0 = time.perf_counter()
        par = run_scenario_parallel(scenario, workers=workers)
        par_wall = time.perf_counter() - t0

    identical = all(
        seq.cells[key].summary == par.cells[key].summary
        and seq.cells[key].metrics == par.cells[key].metrics
        for key in seq.cells
    )
    record = {
        "scenario": SCENARIO_ID,
        "cells": n_cells,
        "sequential_wall_seconds": seq_wall,
        "sequential_cells_per_second": n_cells / seq_wall,
        "parallel_workers": effective_workers,
        "parallel_workers_requested": workers,
        "parallel_timing_skipped": timing_skipped,
        "cells_identical": identical,
    }
    if not timing_skipped:
        record["parallel_wall_seconds"] = par_wall
        record["parallel_cells_per_second"] = n_cells / par_wall
        record["speedup"] = seq_wall / par_wall
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("BENCH_engine.json"))
    parser.add_argument("--scale", type=float, default=0.08,
                        help="scenario scale for the cells/sec comparison")
    parser.add_argument("--workers", type=int, default=0,
                        help="pool size for the parallel leg (0 = one per CPU)")
    args = parser.parse_args(argv)
    workers = args.workers or os.cpu_count() or 1

    print(f"[bench_engine] kernel events/sec ...", flush=True)
    events_per_second = measure_kernel_events()
    print(f"[bench_engine]   {events_per_second:,.0f} events/s", flush=True)

    print(f"[bench_engine] sampling layer (scalar vs batched) ...", flush=True)
    sampling = measure_sampling()
    print(
        f"[bench_engine]   {sampling['scalar_draws_per_second']:,.0f} -> "
        f"{sampling['batched_draws_per_second']:,.0f} draws/s "
        f"({sampling['batched_speedup']:.2f}x)",
        flush=True,
    )

    print(f"[bench_engine] end-to-end cell (E1 point, DAS) ...", flush=True)
    cell = measure_cell_requests(args.scale)
    print(
        f"[bench_engine]   {cell['requests_per_second']:,.0f} requests/s "
        f"(timeout pool hit rate {cell['timeout_pool_hit_rate']:.3f})",
        flush=True,
    )

    print(f"[bench_engine] {SCENARIO_ID} sequential vs {workers} workers ...",
          flush=True)
    scenario = measure_scenario(args.scale, workers)
    if scenario["parallel_timing_skipped"]:
        print(
            f"[bench_engine]   {scenario['sequential_cells_per_second']:.2f} "
            f"cells/s sequential; parallel timing skipped (1 worker), "
            f"identical={scenario['cells_identical']}",
            flush=True,
        )
    else:
        print(
            f"[bench_engine]   {scenario['sequential_cells_per_second']:.2f} -> "
            f"{scenario['parallel_cells_per_second']:.2f} cells/s "
            f"(speedup {scenario['speedup']:.2f}x, "
            f"identical={scenario['cells_identical']})",
            flush=True,
        )

    record = {
        "benchmark": "engine",
        "repro_version": __version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "sim_events_per_second": events_per_second,
        "sampling": sampling,
        "cell_end_to_end": cell,
        "scenario_throughput": scenario,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"[bench_engine] wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
