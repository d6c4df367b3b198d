"""The command in ``BENCHMARK.json``: one workload, one seed, one JSON line.

``python3 benchmarks/perf/run.py --workload W --seed S --seconds T --trace 0|1``

A trial is a fixed amount of work, so that both sides of a comparison do
the same; a run repeats fresh-process trials (``harness.trial_seed``) for about
``--seconds`` and reports each metric's favourable quartile over them
(``harness.summarise`` says why not the median).  ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` one timed trial plus profiled
trials and prints the per-layer metrics.  Tables go to stdout first; the
last line is the JSON result.
"""

import sys
from pathlib import Path

if __package__ in (None, ""):  # run as a script: make ``benchmarks.perf`` importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

import argparse  # noqa: E402
import json  # noqa: E402
import time  # noqa: E402
from typing import Any, Dict, List  # noqa: E402

from benchmarks.perf import harness  # noqa: E402
from benchmarks.perf.spec import RUN_SECONDS, UNITS, WORKLOADS  # noqa: E402

#: Fewest trials a quartile is taken over, whatever ``--seconds`` says.
MIN_TIMED_TRIALS = 3


def repeat_trials(
    workload: str, seed: int, traced: bool, deadline: float, at_least: int
) -> List[Dict[str, Any]]:
    """Run trials until the next one would not finish before ``deadline``."""
    trials: List[Dict[str, Any]] = []
    longest = 0.0
    while len(trials) < at_least or time.monotonic() + longest <= deadline:
        started = time.monotonic()
        trials.append(harness.run_trial(workload, seed, len(trials), traced))
        longest = max(longest, time.monotonic() - started)
    return trials


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + args.seconds
    try:
        return report(args, deadline)
    except harness.TrialError as exc:  # no result line: the program could not be run
        print(exc, file=sys.stderr)
        return 2


def report(args: argparse.Namespace, deadline: float) -> int:
    if args.trace:
        trials = [harness.run_trial(args.workload, args.seed)]
        trials += repeat_trials(args.workload, args.seed, True, deadline, at_least=1)
        values = harness.per_layer(trials[:1], trials[1:])
        print(harness.per_layer_table(values))
    else:
        trials = repeat_trials(args.workload, args.seed, False, deadline, MIN_TIMED_TRIALS)
        summaries = harness.end_to_end(trials)
        values = {name: s["value"] for name, s in summaries.items()}
        print(harness.end_to_end_table(summaries))
    errors = harness.violations(args.workload, trials)
    for error in errors:
        print(f"VIOLATION {error}")
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": sum(t["attempted"] for t in trials),
                "failed": sum(t["failed"] for t in trials),
                "metrics": {
                    name: {"value": value, "unit": UNITS[name]}
                    for name, value in values.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
