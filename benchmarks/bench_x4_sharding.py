"""X4 — extension (ours): size-aware two-lane service tier (Minos-style).

Expected shape (asserted on pinned full-scale headline runs over seeds
1–6, where the p999 estimator has enough tail samples to be
meaningful; each claim must hold on at least five of the six seeds):

* Lanes+DAS cuts plain DAS's p999 on the bimodal small/large split and
  on the ``alpha = 1.3`` truncated-Pareto tail: at fan-out 8 a sub-1%
  large-op class touches ``1-(1-p)^8`` of requests, and the weighted-fair
  lane dispatcher guarantees the large class its share instead of
  leaving it behind every small that keeps arriving.
* The lanes are not free: Lanes+DAS has the higher mean on every mix,
  by at most ``COST_BOUND``, and its p99 stays within the same bound.
* On the ``alpha = 1.5`` tail the lanes buy nothing — a negative result:
  the mean and p99 are higher and the p999 only stays within
  ``P999_BOUND_PARETO_15`` of plain DAS's.

The grid itself (all six scheduler columns, including the Lanes+FCFS,
static-cutoff, and 50/50-split ablations) runs at the bench ``--scale``
like every other module, and a determinism gate re-runs it through the
parallel engine: every cell must be byte-identical to its sequential
twin (``cells_identical``).  Both the gate and the headline comparison
are recorded in ``benchmarks/results/X4_sharding.json``.
"""

import dataclasses

from benchmarks import conftest
from benchmarks._common import (
    assert_cells_identical,
    smoke_grid,
    write_json_artifact,
)

from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import get_scenario

#: Scale of the pinned headline comparison (12 000 requests per cell).
HEADLINE_SCALE = 1.0
#: Seeds of the headline comparison, and how many of them a claim needs.
HEADLINE_SEEDS = (1, 2, 3, 4, 5, 6)
QUORUM = 5

#: Lanes+DAS's mean and p99 stay within this factor of plain DAS's.
COST_BOUND = 1.35
#: On pareto-1.5, Lanes+DAS's p999 stays within this factor of DAS's.
P999_BOUND_PARETO_15 = 1.20


def _headline_scenario(seed):
    scenario = get_scenario("X4", scale=HEADLINE_SCALE)
    keep = {"DAS", "Lanes+DAS"}
    points = tuple(
        dataclasses.replace(p, config=dataclasses.replace(p.config, seed=seed))
        for p in scenario.points
    )
    return dataclasses.replace(
        scenario,
        points=points,
        schedulers=tuple(s for s in scenario.schedulers if s.label in keep),
    )


def bench_x4_sharding(benchmark, results_dir):
    result = smoke_grid(benchmark, results_dir, "X4")

    # Determinism gate: the laned cells must be byte-identical under the
    # parallel engine at the very scale this bench just ran.
    cells_identical = assert_cells_identical(result)

    # Headline shape at pinned full scale: deterministic per seed, so the
    # per-seed comparisons are exact, not flaky statistics.
    rows = {}
    comparisons = {}
    for seed in HEADLINE_SEEDS:
        headline = run_scenario(_headline_scenario(seed))
        for point in headline.scenario.points:
            das = headline.cell(point.x, "DAS").summary
            lanes = headline.cell(point.x, "Lanes+DAS").summary
            rows.setdefault(point.x, []).append((das, lanes))
            comparisons.setdefault(point.x, {})[seed] = {
                "das": {"mean": das.mean, "p99": das.p99, "p999": das.p999},
                "lanes_das": {
                    "mean": lanes.mean,
                    "p99": lanes.p99,
                    "p999": lanes.p999,
                },
                "mean_ratio": lanes.mean / das.mean,
                "p99_ratio": lanes.p99 / das.p99,
                "p999_ratio": lanes.p999 / das.p999,
            }

    claims = []
    for x in ("bimodal", "pareto-1.3"):
        claims.append((x, "p999 below DAS", lambda d, ln: ln.p999 < d.p999))
    for x in rows:
        claims.append((x, "mean above DAS", lambda d, ln: ln.mean > d.mean))
        claims.append(
            (x, f"mean within {COST_BOUND}x DAS",
             lambda d, ln: ln.mean <= d.mean * COST_BOUND)
        )
        claims.append(
            (x, f"p99 within {COST_BOUND}x DAS",
             lambda d, ln: ln.p99 <= d.p99 * COST_BOUND)
        )
    claims.append(("pareto-1.5", "p99 above DAS", lambda d, ln: ln.p99 > d.p99))
    claims.append(
        ("pareto-1.5", f"p999 within {P999_BOUND_PARETO_15}x DAS",
         lambda d, ln: ln.p999 <= d.p999 * P999_BOUND_PARETO_15)
    )
    held = {}
    for x, text, claim in claims:
        count = sum(claim(das, lanes) for das, lanes in rows[x])
        held[f"{x}: Lanes+DAS {text}"] = count
        assert count >= QUORUM, (
            f"{x}: Lanes+DAS {text} on only {count} of "
            f"{len(HEADLINE_SEEDS)} seeds"
        )

    artifact = {
        "grid_scale": conftest.SCALE,
        "headline_scale": HEADLINE_SCALE,
        "headline_seeds": list(HEADLINE_SEEDS),
        "cells_identical": cells_identical,
        "claims_held": held,
        "comparisons": comparisons,
    }
    write_json_artifact(results_dir, "X4_sharding.json", artifact)
    lines = ["X4 headline (scale 1.0, seeds 1-6, Lanes+DAS vs DAS):"]
    for text, count in held.items():
        lines.append(f"  {text}: {count}/{len(HEADLINE_SEEDS)} seeds")
    text = "\n".join(lines)
    print()
    print(text)
