"""compare.py verdicts on synthetic ledger records."""

import copy

from benchmarks.perf.compare import BETTER, UNRESOLVED, WITHIN, WORSE, compare, verdict
from benchmarks.perf.harness import summarise
from benchmarks.perf.spec import END_TO_END, ledger_bound

METRICS = {m.name: m for m in END_TO_END}


def _summary(centre, spread=0.02, better="lower"):
    """Five trials around ``centre`` with inter-quartile range of about ``spread``."""
    return summarise([centre * (1 + spread * k) for k in (-0.6, -0.4, 0.0, 0.4, 0.6)], better)


def test_value_is_the_favourable_quartile_within_the_range():
    trials = [10.0, 11.0, 12.0, 18.0, 30.0]
    assert summarise(trials, "lower")["value"] == 10.5 == summarise(trials, "lower")["q1"]
    assert summarise(trials, "higher")["value"] == 24.0
    assert summarise(trials, "lower")["median"] == 12.0
    assert summarise([5.0, 9.0], "lower")["value"] == 5.0  # not extrapolated below the best
    assert summarise([7.0], "higher")["value"] == 7.0


def _record(**overrides):
    workload = {
        "clock": "wall",
        "end_to_end": {name: _summary(100.0) for name in METRICS},
        "failed_share": 0.0,
        "sim_digest": None,
    }
    workload["end_to_end"].update(overrides)
    return {"meta": {"seed": 11, "trials": 5}, "workloads": {"rt-get-small": workload}}


def test_verdicts_follow_the_metric_direction():
    lower, higher = METRICS["cpu_ms_per_req"], METRICS["requests_per_s"]
    base = _summary(100.0)
    assert verdict(lower, "wall", base, _summary(105.0))[0] == WITHIN
    assert verdict(lower, "wall", base, _summary(115.0))[0] == WORSE
    assert verdict(lower, "wall", base, _summary(85.0))[0] == BETTER
    assert verdict(higher, "wall", base, _summary(85.0))[0] == WORSE
    assert verdict(higher, "wall", base, _summary(115.0))[0] == BETTER


def test_wide_spread_is_unresolved_not_unchanged():
    metric = METRICS["rct_p99_ms"]
    noisy = summarise([102.0, 103.0, 110.0, 130.0, 160.0], "lower")  # one-sided noise
    assert verdict(metric, "wall", _summary(100.0), noisy)[0] == UNRESOLVED
    assert verdict(metric, "wall", noisy, _summary(100.0))[0] == UNRESOLVED
    # A value beyond the bound is still called, however wide the spread.
    slow = summarise([150.0, 152.0, 160.0, 190.0, 240.0], "lower")
    assert verdict(metric, "wall", _summary(100.0), slow)[0] == WORSE


def test_bounds_depend_on_clock_and_setup_floor():
    assert ledger_bound("rct_mean_ms", "simulated", 0.7) == 0.01
    assert ledger_bound("rct_mean_ms", "wall", 0.7) == 0.10
    assert ledger_bound("setup_s", "wall", 2.0) == 0.15
    assert ledger_bound("setup_s", "wall", 0.1) == 0.5  # the 0.05 s floor
    metric = METRICS["rct_mean_ms"]
    assert verdict(metric, "simulated", _summary(100.0, 0.0), _summary(102.0, 0.0))[0] == WORSE
    assert verdict(metric, "wall", _summary(100.0), _summary(102.0))[0] == WITHIN


def test_compare_reports_and_fails_on_worse_or_failures():
    base = _record()
    report, regressed = compare(base, copy.deepcopy(base))
    assert not regressed and "rt-get-small" in report and WORSE not in report
    assert "1.0000x of 99" in report  # every ratio with its base (the q1 of 100 +- 2%)

    _, regressed = compare(base, _record(requests_per_s=_summary(80.0)))
    assert regressed

    failing = copy.deepcopy(base)
    failing["workloads"]["rt-get-small"]["failed_share"] = 0.01
    report, regressed = compare(base, failing)
    assert regressed and "failed_share" in report


def test_compare_reports_sim_digest():
    a, b = _record(), _record()
    for record, digest in ((a, "aa"), (b, "bb")):
        record["workloads"]["rt-get-small"].update(clock="simulated", sim_digest=digest)
    assert "sim_digest DIFFERS" in compare(a, b)[0]
    assert "sim_digest identical" in compare(a, copy.deepcopy(a))[0]
