"""E4 — time-varying load (MMPP alternating 0.4 <-> 0.95).

Expected shape: FCFS suffers most during spikes; DAS (and SBF) absorb them
via size-aware ordering, and DAS's rate estimates never leave it
materially behind static Rein-SBF.
"""

from benchmarks.conftest import execute_scenario, report


def bench_e4_time_varying(benchmark, results_dir):
    result = execute_scenario(benchmark, "E4")
    report(result, results_dir)

    fcfs = result.series("FCFS")
    sbf = result.series("Rein-SBF")
    das = result.series("DAS")
    # DAS beats FCFS clearly at every dwell setting (fast spikes hurt
    # FCFS the most; at long dwells the system is near-stationary and the
    # gap narrows toward the steady-state one).
    for d, f in zip(das, fcfs):
        assert 1.0 - d / f > 0.18
    # Rate adaptation never hurts materially.
    for d, s in zip(das, sbf):
        assert d < s * 1.10
