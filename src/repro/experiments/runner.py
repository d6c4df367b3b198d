"""Execute scenario grids sequentially and collect per-cell results.

This is the *reference* runner: :func:`run_cell` builds one cluster from
one ``(RunPoint, SchedulerSpec)`` cell, runs it to completion, and
condenses the outcome into a :class:`CellResult` (RCT summary, slowdown
percentiles, observability snapshot); :func:`run_scenario` walks the
grid in order and assembles a :class:`ScenarioResult`.  The parallel
engine (:mod:`repro.experiments.parallel`) reuses :func:`run_cell`
unchanged and is validated cell-for-cell against this module — see
``docs/experiments.md``.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.kvstore.cluster import Cluster, RunResult
from repro.metrics.summary import SummaryStats
from repro.experiments.scenarios import RunPoint, Scenario, SchedulerSpec

#: Metrics computed from per-request RCT/slowdown arrays.
_SUMMARY_METRICS = {"mean", "p50", "p90", "p95", "p99", "p999", "std"}
_SLOWDOWN_METRICS = {"mean_slowdown", "p99_slowdown"}


@dataclass
class CellResult:
    """Outcome of one (point, scheduler) cell."""

    x: object
    scheduler: str
    summary: SummaryStats
    mean_slowdown: float
    p99_slowdown: float
    utilization: float
    requests: int
    wall_seconds: float
    #: Registry snapshot and sampled request traces captured by the run
    #: (see :mod:`repro.obs`); written out as experiment artifacts.
    metrics: Dict[str, Any] = field(default_factory=dict)
    traces: List[Dict[str, Any]] = field(default_factory=list)
    prometheus: str = ""

    def metric(self, name: str) -> float:
        """Look up a reported metric by name."""
        if name in _SUMMARY_METRICS:
            return getattr(self.summary, name)
        if name == "mean_slowdown":
            return self.mean_slowdown
        if name == "p99_slowdown":
            return self.p99_slowdown
        raise ConfigError(f"unknown metric {name!r}")


@dataclass
class ScenarioResult:
    """All cells of one scenario run."""

    scenario: Scenario
    cells: Dict[Tuple[object, str], CellResult]
    wall_seconds: float

    def cell(self, x: object, scheduler_label: str) -> CellResult:
        """Look up one cell by its grid coordinates."""
        try:
            return self.cells[(x, scheduler_label)]
        except KeyError:
            raise ConfigError(
                f"no cell for point {x!r} scheduler {scheduler_label!r}"
            ) from None

    def series(self, scheduler_label: str, metric: Optional[str] = None) -> List[float]:
        """This scheduler's metric across the scenario's points, in order."""
        metric = metric or self.scenario.metric
        return [
            self.cell(p.x, scheduler_label).metric(metric)
            for p in self.scenario.points
        ]

    def xs(self) -> List[object]:
        """The scenario's x-axis values, in point order."""
        return [p.x for p in self.scenario.points]

    def reduction_vs(
        self, baseline_label: str, treatment_label: str, metric: Optional[str] = None
    ) -> List[float]:
        """Fractional reduction of treatment vs baseline at each point."""
        base = self.series(baseline_label, metric)
        treat = self.series(treatment_label, metric)
        return [1.0 - t / b if b > 0 else float("nan") for b, t in zip(base, treat)]


def run_cell(point: RunPoint, scheduler: SchedulerSpec) -> CellResult:
    """Run one (point, scheduler) cell and summarize it."""
    config = dataclasses.replace(
        point.config, scheduler=scheduler.name, scheduler_params=dict(scheduler.params)
    )
    t0 = time.perf_counter()
    cluster = Cluster(config)
    result: RunResult = cluster.run(point.sim)
    wall = time.perf_counter() - t0
    slowdowns = result.collector.slowdowns(result.warmup_time)
    if slowdowns.size == 0:
        raise ConfigError(
            f"cell ({point.x!r}, {scheduler.label}) completed no requests "
            "after warmup — increase the run length"
        )
    return CellResult(
        x=point.x,
        scheduler=scheduler.label,
        summary=result.summary(),
        mean_slowdown=float(slowdowns.mean()),
        p99_slowdown=float(np.percentile(slowdowns, 99)),
        utilization=result.mean_utilization,
        requests=result.requests_completed,
        wall_seconds=wall,
        # Gauges are evaluated here, while queues are still live, so the
        # snapshot records end-of-run queue truth (lengths, lane state, ...).
        metrics=cluster.registry.snapshot(),
        traces=cluster.tracer.as_dicts(),
        prometheus=cluster.registry.to_prometheus(
            extra_labels={"scheduler": scheduler.label}
        ),
    )


def write_observability_artifacts(
    result: ScenarioResult, directory: Path
) -> List[Path]:
    """Write the scenario's metrics/trace artifacts next to its results.

    Two files per scenario, named by experiment id:

    * ``<EID>.metrics.json`` — every cell's registry snapshot plus its
      sampled request traces;
    * ``<EID>.metrics.prom`` — Prometheus text exposition for one
      representative cell (the first DAS cell when present).  One cell
      only: concatenating registries would repeat ``# TYPE`` lines,
      which the exposition format forbids.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    eid = result.scenario.experiment_id
    cells = [
        {
            "x": cell.x,
            "scheduler": cell.scheduler,
            "requests": cell.requests,
            "metrics": cell.metrics,
            "traces": cell.traces,
        }
        for cell in result.cells.values()
    ]
    json_path = directory / f"{eid}.metrics.json"
    json_path.write_text(
        json.dumps({"experiment_id": eid, "cells": cells}, indent=1, default=str),
        encoding="utf-8",
    )
    written = [json_path]
    representative = next(
        (c for c in result.cells.values() if c.scheduler == "DAS" and c.prometheus),
        next((c for c in result.cells.values() if c.prometheus), None),
    )
    if representative is not None:
        prom_path = directory / f"{eid}.metrics.prom"
        prom_path.write_text(representative.prometheus, encoding="utf-8")
        written.append(prom_path)
    return written


def run_scenario(
    scenario: Scenario,
    progress: Optional[Callable[[str], None]] = None,
) -> ScenarioResult:
    """Run every cell of ``scenario`` (sequentially, deterministically)."""
    t0 = time.perf_counter()
    cells: Dict[Tuple[object, str], CellResult] = {}
    for point in scenario.points:
        for scheduler in scenario.schedulers:
            if progress is not None:
                progress(
                    f"[{scenario.experiment_id}] point={point.x!r} "
                    f"scheduler={scheduler.label}"
                )
            cells[(point.x, scheduler.label)] = run_cell(point, scheduler)
    return ScenarioResult(
        scenario=scenario,
        cells=cells,
        wall_seconds=time.perf_counter() - t0,
    )
