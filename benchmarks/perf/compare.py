"""Diff two ledger records: ``python benchmarks/perf/compare.py A.json B.json``.

``A`` is the base, ``B`` the candidate; both come from
``python -m benchmarks.perf --out`` with the same seed.  Per (workload,
end-to-end metric) the verdict is ``worse`` / ``better`` when B's value
(the favourable quartile of its trials, see ``harness.summarise``) is
beyond the metric's bound from A's, ``unresolved`` when the values are
within the bound but either side's inter-quartile range is wider than it
(the spread cannot show "unchanged"), else ``within bound``.
Exits 1 on any ``worse`` or on a raised ``failed_share``.
"""

import sys
from pathlib import Path

if __package__ in (None, ""):  # run as a script: make ``benchmarks.perf`` importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

import argparse  # noqa: E402
import json  # noqa: E402
from typing import Any, Dict, List, Tuple  # noqa: E402

from benchmarks.perf.harness import format_rows  # noqa: E402
from benchmarks.perf.spec import (  # noqa: E402
    END_TO_END,
    FAILED_SHARE,
    FAILED_SHARE_SLACK,
    Metric,
    ledger_bound,
)

WORSE, BETTER, UNRESOLVED, WITHIN = "worse", "better", "unresolved", "within bound"


def verdict(metric: Metric, clock: str, base: Dict[str, Any], new: Dict[str, Any]) -> Tuple[str, float]:
    """``(verdict, bound)`` for one metric's two summaries."""
    bound = ledger_bound(metric.name, clock, base["value"])
    change = (new["value"] - base["value"]) / base["value"]
    worse_by = change if metric.better == "lower" else -change
    if worse_by > bound:
        return WORSE, bound
    if worse_by < -bound:
        return BETTER, bound
    spreads = [(s["q3"] - s["q1"]) / s["median"] for s in (base, new)]
    return (UNRESOLVED if max(spreads) > bound else WITHIN), bound


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[str, bool]:
    """The report text and whether anything regressed."""
    lines: List[str] = []
    for key in ("seed", "trials", "event_core", "python", "nproc"):
        if a["meta"].get(key) != b["meta"].get(key):
            lines.append(
                f"note: {key} differs: A={a['meta'].get(key)} B={b['meta'].get(key)}"
            )
    regressed = False
    matrix = [("workload",) + tuple(m.name for m in END_TO_END) + (FAILED_SHARE.name,)]
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            lines.append(f"note: {name} is missing from B")
            continue
        rows = [("metric", "unit", "A value", "A iqr", "B value", "B iqr", "B/A", "bound", "verdict")]
        cells = [name]
        for metric in END_TO_END:
            sa, sb = wa["end_to_end"][metric.name], wb["end_to_end"][metric.name]
            outcome, bound = verdict(metric, wa["clock"], sa, sb)
            regressed |= outcome == WORSE
            cells.append(outcome)
            rows.append(
                (
                    metric.name, metric.unit,
                    sa["value"], sa["q3"] - sa["q1"], sb["value"], sb["q3"] - sb["q1"],
                    f"{sb['value'] / sa['value']:.4f}x of {sa['value']:.6g}",
                    f"{bound:.1%}", outcome,
                )
            )
        fa, fb = wa[FAILED_SHARE.name], wb[FAILED_SHARE.name]
        raised = fb > fa + FAILED_SHARE_SLACK
        regressed |= raised
        cells.append(WORSE if raised else WITHIN)
        rows.append(
            (
                FAILED_SHARE.name, FAILED_SHARE.unit, fa, "", fb, "",
                f"{fb - fa:+.6g} on {fa:.6g}", f"+{FAILED_SHARE_SLACK}", cells[-1],
            )
        )
        matrix.append(tuple(cells))
        lines.append(f"== {name} (rct_* on the {wa['clock']} clock) ==")
        lines.append(format_rows(rows))
        if wa["sim_digest"] is not None:
            same = wa["sim_digest"] == wb["sim_digest"]
            lines.append(
                "sim_digest " + ("identical" if same else
                                 f"DIFFERS: A={wa['sim_digest']} B={wb['sim_digest']}")
            )
        lines.append("")
    lines.append(format_rows(matrix))
    return "\n".join(lines), regressed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="record A")
    parser.add_argument("candidate", help="record B")
    args = parser.parse_args(argv)
    records = []
    for path in (args.base, args.candidate):
        with open(path, encoding="utf-8") as handle:
            records.append(json.load(handle))
    report, regressed = compare(*records)
    print(report)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
