"""E10 — fairness: P99 slowdown under the bimodal mix.

Expected shape: FCFS is the fairness gold standard (low slowdown spread);
size-based ordering can starve large multigets; DAS, ranking by the
speed-adjusted bottleneck alone, keeps its P99 slowdown within a bounded
factor of FCFS while preserving the mean-RCT win.
"""

from benchmarks.conftest import execute_scenario, report


def bench_e10_fairness(benchmark, results_dir):
    result = execute_scenario(benchmark, "E10")
    report(result, results_dir)

    for load in result.xs():
        fcfs = result.cell(load, "FCFS")
        das = result.cell(load, "DAS")
        # DAS still wins the mean...
        assert das.summary.mean < fcfs.summary.mean
        # ...without unbounded starvation: p99 slowdown within 50x of FCFS
        # (pure SBF can be orders of magnitude worse at heavy load).
        assert das.p99_slowdown < fcfs.p99_slowdown * 50
