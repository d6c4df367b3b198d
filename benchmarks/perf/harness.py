"""Parent-side plumbing shared by ``run.py`` and ``python -m benchmarks.perf``.

The parent only starts trials and waits.  Every trial is a fresh child
process (repeated ``asyncio.run`` cycles inside one process drifted ~20%
upward), single-threaded, with ``PYTHONHASHSEED=0`` and ``REPRO_ENGINE``
unset so the library's default event core runs.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence

from benchmarks.perf.spec import END_TO_END, PER_LAYER, TIMED_COUNTERS, UNITS, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]

#: A trial takes 5-11 s here; the contract allows a whole run 180 s.
TRIAL_TIMEOUT_S = 150


class TrialError(RuntimeError):
    """A trial child could not produce a record."""


def trial_seed(workload: str, seed: int, index: int) -> int:
    """The seed of a run's ``index``-th trial.

    Simulator trials repeat the seed: they are deterministic, so the
    digest of their RCTs can be compared between trials.  Runtime trials
    never repeat exactly and their tail is set by which large requests the
    plan happens to hold, so each draws its own plan and the run's median
    is taken over several plans instead of one.
    """
    return seed if WORKLOADS[workload].runner == "sim" else seed * 1000 + index


def run_trial(workload: str, seed: int, index: int = 0, traced: bool = False) -> Dict[str, Any]:
    """Run trial ``index`` of a run in a fresh child process; return its record."""
    seed = trial_seed(workload, seed, index)
    env = {k: v for k, v in os.environ.items() if k != "REPRO_ENGINE"}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join((str(ROOT / "src"), str(ROOT)))
    command = [sys.executable, "-m", "benchmarks.perf.trial", workload, "--seed", str(seed)]
    if traced:
        command.append("--traced")
    try:
        child = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=TRIAL_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise TrialError(f"{workload}: trial exceeded {TRIAL_TIMEOUT_S} s") from exc
    if child.returncode != 0:
        raise TrialError(
            f"{workload}: trial exited {child.returncode}\n{child.stderr[-2000:]}"
        )
    return json.loads(child.stdout.strip().splitlines()[-1])


def summarise(values: Sequence[float], better: str) -> Dict[str, Any]:
    """One metric's per-trial values boiled down.

    ``value``, the number the benchmark reports and compares, is the
    *favourable quartile* of the trials (the lower one when lower is
    better), not the median.  Other tenants of a shared machine only ever
    slow a trial down, so the noise is one-sided: over ten runs of ten
    seeds the favourable quartile's run-to-run spread was about half the
    median's on most metrics (README, "Steadiness").  The median, both
    quartiles and the range are kept beside it.
    """
    q1, _, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    )
    favourable = q1 if better == "lower" else q3
    return {
        # With two or three trials the quartile extrapolates past the range.
        "value": min(max(favourable, min(values)), max(values)),
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "values": list(values),
    }


def end_to_end(trials: Sequence[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Per end-to-end metric, the summary over ``trials`` (all untraced)."""
    return {
        m.name: summarise([t["metrics"][m.name] for t in trials], m.better)
        for m in END_TO_END
    }


def per_layer(
    timed: Sequence[Dict[str, Any]], traced: Sequence[Dict[str, Any]]
) -> Dict[str, float]:
    """Every per-layer metric: medians over the traced trials, except the
    ones only timed trials can give and the tracing overhead between the two."""
    values = {
        m.name: statistics.median(t["layers"][m.name] for t in traced) for m in PER_LAYER
    }
    for name in TIMED_COUNTERS:
        values[name] = statistics.median(t["timed"][name] for t in timed)

    def cpu(trials: Iterable[Dict[str, Any]]) -> float:
        return statistics.median(t["metrics"]["cpu_ms_per_req"] for t in trials)

    values["C.trace_overhead_x"] = cpu(traced) / cpu(timed)
    return values


def violations(workload: str, trials: Sequence[Dict[str, Any]]) -> List[str]:
    """Correctness violations over all of a workload's trials (same seed)."""
    found = [f"{workload}: {error}" for t in trials for error in t["errors"]]
    failed = sum(t["failed"] for t in trials)
    if failed:
        found.append(f"{workload}: {failed} requests failed")
    # Same seed and same size must give the same simulated RCTs, bit for bit.
    for traced in (False, True):
        digests = {t["sim_digest"] for t in trials if t["traced"] == traced}
        if len(digests) > 1:
            found.append(f"{workload}: sim_digest differs between trials: {sorted(digests)}")
    return found


def format_rows(rows: Iterable[Sequence[Any]]) -> str:
    """Left-aligned text table; floats get six significant digits."""
    cells = [
        [f"{c:.6g}" if isinstance(c, float) else str(c) for c in row] for row in rows
    ]
    widths = [max(len(row[i]) for row in cells) for i in range(len(cells[0]))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in cells
    )


def end_to_end_table(summaries: Dict[str, Dict[str, Any]]) -> str:
    return format_rows(
        [("metric", "unit", "value", "median", "q1", "q3", "min", "max", "n")]
        + [
            (name, UNITS[name], s["value"], s["median"], s["q1"], s["q3"], s["min"], s["max"], s["n"])
            for name, s in summaries.items()
        ]
    )


def per_layer_table(values: Dict[str, float]) -> str:
    """Layer rows (self time, share of profiled time, calls), then S.* and C.*."""
    self_us = {k: v for k, v in values.items() if k.endswith(".self_us_per_req")}
    profiled = sum(self_us.values()) or 1.0
    rows: List[Sequence[Any]] = [("layer", "self us/req", "share", "calls/req")]
    for name, value in self_us.items():
        calls = values[name.replace(".self_us_per_req", ".calls_per_req")]
        if value or calls:
            layer = name.removeprefix("L.").removesuffix(".self_us_per_req")
            rows.append((layer, value, f"{value / profiled:.1%}", calls))
    rows.append(("", "", "", ""))
    rows += [
        (name, value, UNITS[name], "")
        for name, value in values.items()
        if not name.startswith("L.")
    ]
    return format_rows(rows)
