"""Generate EXPERIMENTS.md: run the whole suite and record paper-vs-measured.

This is the evaluation-record generator (DESIGN.md §4 maps experiment ids
to the paper's tables and figures; ``docs/experiments.md`` documents the
matrix).  Usage::

    python -m repro.experiments.fullrun [--scale 0.4] [--out EXPERIMENTS.md]
    python -m repro.experiments.fullrun --workers 4 --checkpoint .cells

Each experiment section contains the measured table, the DAS reductions
vs FCFS and vs Rein-SBF where applicable, and the paper expectation the
run is checked against.  ``--workers N`` fans the cells of each
experiment out over N processes (identical output, see
``docs/benchmarking.md``); ``--checkpoint DIR`` makes an interrupted
full run resumable cell by cell.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path
from typing import List, Optional

from repro._version import __version__
from repro.experiments.parallel import run_scenario_parallel
from repro.experiments.report import scenario_markdown
from repro.experiments.runner import (
    ScenarioResult,
    run_scenario,
    write_observability_artifacts,
)
from repro.experiments.scenarios import SCENARIOS, get_scenario, workload_scenario

#: What the paper (abstract) leads us to expect, per experiment.
EXPECTATIONS = {
    "E1": "DAS cuts mean RCT vs FCFS by >15% from moderate load, ~50%+ when "
          "hot; DAS tracks or beats Rein-SBF at every load.",
    "E2": "Size-based policies trade some tail for mean at heavy load; DAS's "
          "aging keeps P99 within the same decade as FCFS.",
    "E3": "Mean RCT grows with fan-out (max structure); DAS's win holds "
          "across fan-outs.",
    "E4": "Under Markov-modulated load DAS absorbs spikes; large win vs "
          "FCFS at every dwell; its rate estimates never leave it behind "
          "Rein-SBF.",
    "E5": "With degraded servers DAS's rate feedback beats both FCFS and "
          "Rein-SBF — the 'time-varying server performance' claim.",
    "E6": "DAS wins on every traffic pattern; biggest wins on wide "
          "request-size spreads (bimodal/heavy-tail).",
    "E7": "Headline: >15~50% mean-RCT reduction vs FCFS; DAS >= Rein-SBF "
          "under various scenarios (abstract, verbatim).",
    "E8": "DAS's win over Rein-SBF is robust to its one constant, the "
          "rate-EWMA alpha — no sensitivity cliff.",
    "E9": "Fully distributed: the advantage persists as the cluster scales.",
    "E10": "DAS ranks by the speed-adjusted bottleneck alone, so its p99 "
           "slowdown tracks Rein-SBF's and stays within a bounded factor "
           "of FCFS's while keeping the mean win.",
    "A2": "(ours) piggyback feedback matches periodic broadcast at zero "
          "message cost; without feedback DAS collapses to Rein-SBF.",
    "X1": "(ours, extension) spreading reads over replicas beats "
          "primary-only under Zipf skew; selection driven by DAS's "
          "queued-work estimates matches or beats blind round-robin at "
          "zero extra message cost.",
    "X2": "(ours, extension) with op timeouts and replica retries a "
          "mid-run server outage barely moves the tail; unprotected, "
          "every request touching the dead server stalls until recovery.",
    "X3": "(ours, extension) on a degraded heterogeneous fleet every "
          "estimate- or probe-driven selection policy (least-work, "
          "power-of-d, C3, Tars, Prequal) beats both load-oblivious "
          "baselines (primary, random) on mean and P99 RCT; the scored "
          "policies cut the tail the furthest.",
    "X4": "(ours, extension) at fan-out 8 a sub-1% large-op class taints "
          "~1-(1-p)^8 of requests, so larges waiting behind every smaller "
          "RPT land on the request tail; the size-aware two-lane tier "
          "(Minos-style, WFQ dispatch, adaptive cutoff) cuts plain DAS's "
          "P999 on the bimodal and alpha=1.3 Pareto mixes at a 2-29% "
          "higher mean (seeds 1-6). Negative result: on alpha=1.5 Pareto "
          "the lanes lose mean and P99 and only tie P999; a 50/50 split "
          "or frozen cutoff forfeits the win.",
    "X5": "(ours, extension) at 128-512 servers the Dodoor-style load "
          "cache (d-choices over bounded-stale periodic reports) keeps "
          "P99 RCT within a guard band of probe-per-request Prequal "
          "while sending an order of magnitude fewer control-plane "
          "messages per request — report cost scales with "
          "servers/interval, not with the request rate; the refresh "
          "sweep at 256 servers traces freshness vs overhead.",
    "X6": "(ours, extension) under a mid-run crash, timeout-only "
          "retries pay the full op-timeout on every request touching "
          "the dead server, while quantile hedging plus a failure "
          "detector keeps P99 within a small factor of the healthy "
          "cell; partitions, flaky links, and slow nodes show the same "
          "ordering.",
}


_METRIC_LABELS = {
    "mean": "mean-RCT",
    "p50": "P50-RCT",
    "p99": "P99-RCT",
    "p999": "P99.9-RCT",
    "mean_slowdown": "mean-slowdown",
    "p99_slowdown": "P99-slowdown",
}


def _reduction_lines(result: ScenarioResult) -> List[str]:
    labels = {spec.label for spec in result.scenario.schedulers}
    if "DAS" not in labels:
        return []
    metric = result.scenario.metric
    metric_label = _METRIC_LABELS.get(metric, metric)
    lines = []
    for baseline in ("FCFS", "Rein-SBF"):
        if baseline in labels:
            values = result.reduction_vs(baseline, "DAS")
            rendered = ", ".join(
                f"{x}: {v * 100:.1f}%" for x, v in zip(result.xs(), values)
            )
            lines.append(
                f"*DAS {metric_label} reduction vs {baseline}:* {rendered}"
            )
    return lines


def render_section(result: ScenarioResult) -> str:
    """Render one experiment's EXPERIMENTS.md section (table + notes)."""
    scenario = result.scenario
    parts = [
        f"## {scenario.experiment_id} — {scenario.title}",
        "",
        f"**Paper expectation.** {EXPECTATIONS.get(scenario.experiment_id, '-')}",
        "",
        f"**Measured** (metric: `{scenario.metric}`"
        + (", milliseconds):" if scenario.metric in
           {"mean", "p50", "p90", "p95", "p99", "p999", "std"} else "):"),
        "",
        scenario_markdown(result),
        "",
    ]
    for line in _reduction_lines(result):
        parts.append(line)
        parts.append("")
    if scenario.notes:
        parts.append(f"*Note.* {scenario.notes}")
        parts.append("")
    parts.append(f"*({len(result.cells)} cells, {result.wall_seconds:.0f}s wall)*")
    parts.append("")
    return "\n".join(parts)


HEADER = """# EXPERIMENTS — paper vs measured

Reproduction record for *"Cutting the Request Completion Time in Key-value
Stores with Distributed Adaptive Scheduler"* (ICDCS 2021).  Only the
abstract of the paper was available, so "paper expectation" states what the
abstract claims (or what the reconstruction targets); "measured" is this
repository's output.  Absolute numbers are not comparable to the authors'
(different simulator, different constants); the comparison is the **shape**:
who wins, by roughly what factor, and where.

Regenerate any experiment with `repro-experiments <ID>`; regenerate this
file with `python -m repro.experiments.fullrun`.

**Summary of the reproduction.**

* The abstract's headline — *"DAS reduces the mean request completion time
  by more than 15~50% compared to the default first come first served
  algorithm"* — reproduces: measured reductions vs FCFS grow from ~12% at
  load 0.6 through ~21% (0.7) and ~40% (0.8) to ~49% at load 0.9 on the
  baseline mix (E1), and reach 45–95% on the bimodal mix and under server
  degradation (E5–E7).
* The abstract's comparison — *"outperforms the existing Rein-SBF algorithm
  under various scenarios"* — reproduces as: parity on homogeneous healthy
  clusters (DAS degrades to SBF ordering with zero information, by design)
  and consistent 22–38% wins wherever server performance varies (E5
  degradation, E8 sensitivity, A2 feedback); on fairness (E10) DAS's p99
  slowdown tracks Rein-SBF's (a fairness-vs-mean trade FCFS wins by
  definition).
* The abstract's *LRPT-last* half does not reproduce.  A demotion band for
  outlier requests was built and measured over seeds 1–6, collapsed
  heavy-tailed fan-out-8 cells to up to 6.3x the mean RCT, and was
  deleted (DESIGN.md §2).  The DAS measured here is rate-adjusted
  shortest-bottleneck-first.
"""


def main(argv: Optional[List[str]] = None) -> int:
    """Run the requested experiments and write the EXPERIMENTS.md record."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.4)
    parser.add_argument("--out", type=Path, default=Path("EXPERIMENTS.md"))
    parser.add_argument("--only", nargs="*", default=None,
                        help="experiment ids (default: all)")
    parser.add_argument("--artifacts", type=Path, default=None,
                        help="directory for per-experiment metrics/trace "
                             "artifacts (default: <out dir>/artifacts)")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="worker processes per experiment "
                             "(default 1 = sequential; 0 = one per CPU)")
    parser.add_argument("--checkpoint", type=Path, default=None, metavar="DIR",
                        help="per-cell checkpoint directory; reruns resume "
                             "from the finished cells")
    parser.add_argument("--workload", action="append", default=[],
                        metavar="NAME|PATH",
                        help="also run a scheduler comparison on this "
                             "declarative workload spec (registry name or "
                             ".toml/.json file; repeatable — see "
                             "docs/workloads.md)")
    args = parser.parse_args(argv)
    artifacts_dir = (
        args.artifacts if args.artifacts is not None
        else args.out.parent / "artifacts"
    )

    if args.only is not None:
        ids = args.only
    elif args.workload:
        ids = []  # `--workload X` alone runs just that spec, not the suite
    else:
        ids = sorted(SCENARIOS)
    runs = [("experiment", i) for i in ids] + [
        ("workload", ref) for ref in args.workload
    ]
    sections = []
    t0 = time.time()
    for kind, ref in runs:
        print(f"[fullrun] running {ref} at scale {args.scale} ...",
              flush=True)
        if kind == "experiment":
            scenario = get_scenario(ref, scale=args.scale)
        else:
            scenario = workload_scenario(ref, scale=args.scale)
        if args.workers == 1 and args.checkpoint is None:
            result = run_scenario(scenario)
        else:
            result = run_scenario_parallel(
                scenario,
                workers=args.workers or None,
                checkpoint_dir=args.checkpoint,
            )
        sections.append(render_section(result))
        written = write_observability_artifacts(result, artifacts_dir)
        print(f"[fullrun]   done in {result.wall_seconds:.0f}s "
              f"({', '.join(p.name for p in written)})", flush=True)

    stamp = (
        f"\n---\n\nGenerated by `repro.experiments.fullrun` "
        f"(repro {__version__}, scale {args.scale}, "
        f"{time.time() - t0:.0f}s total).\n"
    )
    args.out.write_text(HEADER + "\n" + "\n".join(sections) + stamp,
                        encoding="utf-8")
    print(f"[fullrun] wrote {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
