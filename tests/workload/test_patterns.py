"""Tests for the named traffic mixes the experiments read.

A named mix is a bundled spec (``workload(name)``); E6 labels its points
with the paper's pattern names and reads one bundled spec per label.
"""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.experiments import scenarios
from repro.sim.rand import as_batched
from repro.workload import workload
from repro.workload.fanout import (
    BimodalFanout,
    FixedFanout,
    GeometricFanout,
    UniformFanout,
)
from repro.workload.popularity import (
    HotspotPopularity,
    UniformPopularity,
    ZipfPopularity,
)
from repro.workload.sizes import FixedSize, LognormalSize, ParetoSize

E6_SPECS = dict(scenarios.E6_MIXES)

GEOMETRIC = GeometricFanout(mean_target=5.0, cap=64)
LOGNORMAL = LognormalSize(median=1024.0, sigma=1.0, cap=1 << 18)
ZIPF = ZipfPopularity(s=0.99)

#: (fan-out, sizes, popularity) of each E6 point.  Every experiment
#: calibrates its load from these, so editing a bundled spec they come
#: from must fail here instead of silently moving E1–E10.
E6_PINNED = {
    "baseline": (GEOMETRIC, LOGNORMAL, ZIPF),
    "uniform": (UniformFanout(lo=1, hi=9), FixedSize(size=1024), UniformPopularity()),
    "bimodal": (
        BimodalFanout(small=2, large=32, p_large=0.1),
        FixedSize(size=1024),
        ZIPF,
    ),
    "heavytail": (GEOMETRIC, ParetoSize(lo=256.0, alpha=1.5, cap=1 << 20), ZIPF),
    "hotspot": (
        GEOMETRIC,
        LOGNORMAL,
        HotspotPopularity(hot_fraction=0.1, hot_probability=0.9),
    ),
    "single-get": (FixedFanout(k=1), LOGNORMAL, ZIPF),
}


def mix(spec):
    """A spec's or config's (fan-out, sizes, popularity), as reprs."""
    return tuple(repr(c) for c in (spec.fanout, spec.sizes, spec.popularity))


def pinned(*components):
    return tuple(repr(c) for c in components)


class TestPatterns:
    def test_lookup_known(self):
        assert scenarios.BASELINE.name == "baseline"
        assert scenarios.BASELINE is workload("baseline")

    def test_lookup_unknown_lists_names(self):
        with pytest.raises(WorkloadError, match="baseline"):
            workload("mystery")

    @pytest.mark.parametrize("label", sorted(E6_SPECS))
    def test_every_pattern_builds_working_samplers(self, label, rng):
        spec = workload(E6_SPECS[label])
        fanouts = spec.fanout.draw(as_batched(rng), 20)
        sizes = spec.sizes.draw(as_batched(rng), 20)
        popularity = spec.popularity.build(1000, rng)
        assert all(1 <= n <= spec.fanout.max_fanout() for n in fanouts)
        assert all(size >= 0 for size in sizes)
        counts = np.minimum(fanouts, 10)
        picks = popularity.sample_block(counts)
        start = 0
        for n in counts.tolist():
            request = picks[start : start + n]
            assert len(set(request)) == len(request) == n
            start += n

    @pytest.mark.parametrize("label", sorted(E6_SPECS))
    def test_patterns_have_descriptions_and_means(self, label):
        spec = workload(E6_SPECS[label])
        assert spec.description
        assert spec.fanout.mean() >= 1.0
        assert spec.sizes.mean() > 0

    def test_single_get_pattern_is_fanout_one(self):
        assert workload(E6_SPECS["single-get"]).fanout.mean() == 1.0

    def test_bimodal_pattern_mixes_sizes(self):
        spec = workload(E6_SPECS["bimodal"])
        assert spec.fanout.max_fanout() == 32


def test_experiment_mixes_are_pinned():
    assert mix(scenarios.BASELINE) == pinned(*E6_PINNED["baseline"])
    assert mix(scenarios.SWEEP) == pinned(GEOMETRIC, LOGNORMAL, UniformPopularity())
    assert mix(scenarios.BIMODAL_SWEEP) == pinned(
        BimodalFanout(small=2, large=32, p_large=0.1),
        FixedSize(size=1024),
        UniformPopularity(),
    )
    e6 = scenarios.e6_scenario(0.02)
    assert [point.x for point in e6.points] == list(E6_PINNED)
    for point in e6.points:
        assert mix(point.config) == pinned(*E6_PINNED[point.x]), point.x
