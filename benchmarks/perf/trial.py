"""Child process of the benchmark: one trial of one workload, one JSON line.

``python -m benchmarks.perf.trial <workload> --seed S [--traced]``, run by
``harness.run_trial`` with ``src`` and the repo root on ``PYTHONPATH``.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before repro is imported

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def main(argv=None) -> int:
    from benchmarks.perf.spec import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--traced", action="store_true",
        help="profile the measured section, at half the request count",
    )
    args = parser.parse_args(argv)

    from benchmarks.perf.trials import run_trial

    workload = WORKLOADS[args.workload]
    if args.traced:
        workload = dataclasses.replace(workload, requests=workload.requests // 2)
    record = run_trial(workload, args.seed, _T0, traced=args.traced)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
