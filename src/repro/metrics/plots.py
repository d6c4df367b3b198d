"""Terminal plots: sparklines and multi-series line charts in ASCII.

The experiment harness is headless (no matplotlib dependency), so figures
are rendered as aligned character plots — good enough to see crossovers,
spikes, and who-wins at a glance, and they paste into Markdown verbatim.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.errors import ConfigError

_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float]) -> str:
    """One-line sparkline of ``values`` scaled to their own range."""
    data = [float(v) for v in values]
    if not data:
        raise ConfigError("cannot sparkline zero values")
    lo, hi = min(data), max(data)
    span = hi - lo
    if span == 0:
        return _SPARK_BLOCKS[0] * len(data)
    steps = len(_SPARK_BLOCKS) - 1
    return "".join(
        _SPARK_BLOCKS[int(round((v - lo) / span * steps))] for v in data
    )


def line_chart(
    series: Dict[str, Sequence[float]],
    x_labels: Sequence[object],
    height: int = 12,
    width_per_point: int = 8,
    value_format: str = "{:.3g}",
) -> str:
    """Multi-series character chart: one column block per x point.

    Each series gets a marker letter (a, b, c, ...); coinciding points
    render as ``*``.  A legend and the y-range are appended.
    """
    if not series:
        raise ConfigError("no series to plot")
    lengths = {len(v) for v in series.values()}
    if len(lengths) != 1 or lengths.pop() != len(x_labels):
        raise ConfigError("all series must match the x-label count")
    if height < 2:
        raise ConfigError("height must be >= 2")

    all_values = [float(v) for vs in series.values() for v in vs]
    lo, hi = min(all_values), max(all_values)
    span = (hi - lo) or 1.0

    names = list(series)
    markers = {name: chr(ord("a") + i) for i, name in enumerate(names)}
    n_points = len(x_labels)
    grid = [[" "] * (n_points * width_per_point) for _ in range(height)]

    for name in names:
        marker = markers[name]
        for i, value in enumerate(series[name]):
            row = height - 1 - int(round((float(value) - lo) / span * (height - 1)))
            col = i * width_per_point + width_per_point // 2
            grid[row][col] = "*" if grid[row][col] not in (" ", marker) else marker

    lines = ["".join(row).rstrip() for row in grid]
    axis = "".join(
        str(x).center(width_per_point)[:width_per_point] for x in x_labels
    ).rstrip()
    legend = "   ".join(f"{markers[name]}={name}" for name in names)
    y_range = (
        f"y: {value_format.format(lo)} .. {value_format.format(hi)}"
    )
    return "\n".join(lines + ["-" * max(len(axis), 1), axis, legend, y_range])


def scenario_chart(result, metric: str | None = None, height: int = 10) -> str:
    """Line chart of a :class:`~repro.experiments.runner.ScenarioResult`."""
    scenario = result.scenario
    metric = metric or scenario.metric
    series = {
        spec.label: result.series(spec.label, metric)
        for spec in scenario.schedulers
    }
    title = f"{scenario.experiment_id}: {metric} vs {scenario.x_label}"
    return title + "\n" + line_chart(series, result.xs(), height=height)
