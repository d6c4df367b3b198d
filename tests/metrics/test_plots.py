"""Tests for the ASCII plotting helpers."""

import pytest

from repro.errors import ConfigError
from repro.metrics.plots import line_chart, sparkline


class TestSparkline:
    def test_length_matches_input(self):
        assert len(sparkline([1, 2, 3, 4])) == 4

    def test_monotone_values_monotone_blocks(self):
        line = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert line == "▁▂▃▄▅▆▇█"

    def test_flat_series(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            sparkline([])


class TestLineChart:
    def test_contains_legend_and_axis(self):
        chart = line_chart(
            {"FCFS": [1, 2, 3], "DAS": [1, 1.5, 2]},
            x_labels=[0.3, 0.6, 0.9],
        )
        assert "a=FCFS" in chart
        assert "b=DAS" in chart
        assert "0.3" in chart
        assert "y: " in chart

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigError):
            line_chart({"a": [1, 2]}, x_labels=[1, 2, 3])

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            line_chart({}, x_labels=[])

    def test_min_height_enforced(self):
        with pytest.raises(ConfigError):
            line_chart({"a": [1]}, x_labels=[1], height=1)

    def test_extremes_rendered_top_and_bottom(self):
        chart = line_chart({"s": [0.0, 10.0]}, x_labels=["lo", "hi"], height=5)
        lines = chart.splitlines()
        # The single series gets marker letter "a".
        assert "a" in lines[0]  # the max lands on the top row
        assert "a" in lines[4]  # the min lands on the bottom row

