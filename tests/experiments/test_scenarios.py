"""Tests for experiment scenario definitions."""

import pytest

from repro.errors import ConfigError
from repro.experiments.scenarios import SCENARIOS, get_scenario


class TestScenarioFactories:
    @pytest.mark.parametrize("experiment_id", sorted(SCENARIOS))
    def test_every_scenario_builds(self, experiment_id):
        scenario = get_scenario(experiment_id, scale=0.1)
        assert scenario.experiment_id == experiment_id
        assert scenario.points
        assert scenario.schedulers
        assert scenario.title
        assert scenario.metric

    @pytest.mark.parametrize("experiment_id", sorted(SCENARIOS))
    def test_scenario_points_have_valid_configs(self, experiment_id):
        scenario = get_scenario(experiment_id, scale=0.1)
        for point in scenario.points:
            # ClusterConfig/SimulationConfig validate in __post_init__;
            # reaching here means every point is self-consistent.
            assert point.config.n_servers >= 1
            assert (point.sim.duration is None) != (point.sim.max_requests is None)

    def test_unknown_id_rejected(self):
        with pytest.raises(ConfigError, match="E1"):
            get_scenario("E99")

    def test_scale_shrinks_requests(self):
        small = get_scenario("E1", scale=0.1)
        full = get_scenario("E1", scale=1.0)
        assert small.points[0].sim.max_requests < full.points[0].sim.max_requests

    def test_invalid_scale(self):
        with pytest.raises(ConfigError):
            get_scenario("E1", scale=0)

    def test_e1_sweeps_loads(self):
        scenario = get_scenario("E1", scale=0.1)
        assert [p.x for p in scenario.points] == [0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]

    def test_e5_points_differ_in_degradations(self):
        scenario = get_scenario("E5", scale=0.1)
        degraded_counts = [len(p.config.fault_plan.entries) for p in scenario.points]
        assert degraded_counts == [0, 1, 2, 4]

    def test_e7_has_das_fcfs_sbf(self):
        scenario = get_scenario("E7", scale=0.1)
        labels = {s.label for s in scenario.schedulers}
        assert {"FCFS", "Rein-SBF", "DAS"} <= labels

    def test_a2_feedback_modes_differ(self):
        scenario = get_scenario("A2", scale=0.1)
        modes = {p.config.feedback.mode for p in scenario.points}
        assert len(modes) == 3  # piggyback, periodic, none

    def test_identical_seeds_across_schedulers(self):
        """All cells of one point must see the same workload."""
        scenario = get_scenario("E1", scale=0.1)
        seeds = {p.config.seed for p in scenario.points}
        assert len(seeds) == 1
