"""The whole ledger: every workload, timed trials then one traced trial each.

``PYTHONPATH=src python -m benchmarks.perf [--trials N] [--workload W]
[--seed S] [--out FILE]``

Timed trials are interleaved round-robin across workloads so machine
drift hits all of them alike.  Prints, per workload, the eight end-to-end
metrics (value, median, quartiles, range, trial count) and the layer table;
writes the record ``compare.py`` reads; exits 1 on a correctness
violation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from typing import Any, Dict, List

from benchmarks.perf import harness
from benchmarks.perf.spec import FAILED_SHARE, WORKLOADS

DEFAULT_TRIALS = 7


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=harness.ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"  # an exported tree, not a clone


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--out", help="write the record here as JSON")
    args = parser.parse_args(argv)
    if args.trials < 1:
        parser.error("--trials must be at least 1")
    names = args.workload or list(WORKLOADS)

    timed: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    for round_ in range(args.trials):
        for name in names:
            print(f"trial {round_ + 1}/{args.trials} {name}", file=sys.stderr)
            timed[name].append(harness.run_trial(name, args.seed, round_))
    traced = {}
    for name in names:
        print(f"traced trial {name}", file=sys.stderr)
        traced[name] = harness.run_trial(name, args.seed, traced=True)

    record: Dict[str, Any] = {
        "meta": {
            "git_sha": _git_sha(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "event_core": next(
                (t["event_core"] for ts in timed.values() for t in ts if "event_core" in t),
                None,
            ),
            "seed": args.seed,
            "trials": args.trials,
            "network": "in-process LocalCluster on loopback; no real link is measured",
        },
        "workloads": {},
    }
    errors: List[str] = []
    for name in names:
        trials = timed[name]
        attempted = sum(t["attempted"] for t in trials)
        entry = {
            "clock": WORKLOADS[name].clock,
            "requests_per_trial": trials[0]["attempted"],
            "end_to_end": harness.end_to_end(trials),
            FAILED_SHARE.name: sum(t["failed"] for t in trials) / attempted,
            "sim_digest": trials[0]["sim_digest"],
            "per_layer": harness.per_layer(trials, [traced[name]]),
        }
        record["workloads"][name] = entry
        errors += harness.violations(name, trials + [traced[name]])
        print(f"\n== {name}: {entry['requests_per_trial']} requests per trial, "
              f"rct_* on the {entry['clock']} clock ==")
        print(harness.end_to_end_table(entry["end_to_end"]))
        print(f"{FAILED_SHARE.name}  {FAILED_SHARE.unit}  {entry[FAILED_SHARE.name]:.6g}")
        print(f"sim_digest  {entry['sim_digest']}\n")
        print(harness.per_layer_table(entry["per_layer"]))
    record["violations"] = errors

    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            json.dump(record, out, indent=1)
            out.write("\n")
    for error in errors:
        print(f"VIOLATION {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
