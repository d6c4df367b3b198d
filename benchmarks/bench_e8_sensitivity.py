"""E8 — DAS parameter sensitivity on the degradation scenario.

Expected shape: DAS's win over Rein-SBF is robust across the rate-EWMA
``alpha_rate`` — no cliff where a wrong constant erases the result.
"""

from benchmarks.conftest import execute_scenario, report


def bench_e8_sensitivity(benchmark, results_dir):
    result = execute_scenario(benchmark, "E8")
    report(result, results_dir)

    scenario = result.scenario
    sbf_label = "Rein-SBF"
    das_labels = [s.label for s in scenario.schedulers if s.label != sbf_label]
    for point in scenario.points:
        sbf_mean = result.cell(point.x, sbf_label).metric("mean")
        for label in das_labels:
            das_mean = result.cell(point.x, label).metric("mean")
            # Every DAS configuration stays competitive with Rein-SBF.
            assert das_mean < sbf_mean * 1.15, (
                f"{label} at {point.x} fell off a sensitivity cliff"
            )
