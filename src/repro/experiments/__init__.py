"""Experiment harness: one scenario per table/figure of the evaluation.

``SCENARIOS`` maps experiment ids (E1..E10, A2, X1..X6 — see DESIGN.md §4) to
factories building a :class:`~repro.experiments.scenarios.Scenario`; the
:func:`~repro.experiments.runner.run_scenario` function executes every
(point × scheduler) cell sequentially,
:func:`~repro.experiments.parallel.run_scenario_parallel` fans the cells
out over a worker pool with identical results (see
``docs/experiments.md``), and the report module renders the same
rows/series the paper plots.
"""

from repro.experiments.parallel import run_scenario_parallel
from repro.experiments.report import format_reduction_table, format_scenario_table
from repro.experiments.runner import (
    CellResult,
    ScenarioResult,
    run_scenario,
    write_observability_artifacts,
)
from repro.experiments.scenarios import (
    SCENARIOS,
    RunPoint,
    Scenario,
    SchedulerSpec,
    get_scenario,
)

__all__ = [
    "CellResult",
    "RunPoint",
    "SCENARIOS",
    "Scenario",
    "ScenarioResult",
    "SchedulerSpec",
    "format_reduction_table",
    "format_scenario_table",
    "get_scenario",
    "run_scenario",
    "run_scenario_parallel",
    "write_observability_artifacts",
]
