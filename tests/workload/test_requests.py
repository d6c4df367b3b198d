"""Tests for the keyspace, request factory, and load calibration."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workload.arrivals import PoissonArrivals
from repro.workload.fanout import FixedFanout
from repro.workload.popularity import UniformPopularity
from repro.workload.requests import (
    Keyspace,
    RequestFactory,
    RequestSpec,
    TraceReplayFactory,
    arrival_rate_for_load,
)
from repro.workload.sizes import FixedSize, UniformSize
from repro.workload.traces import TraceRecord


def make_keyspace(size=100, rng=None):
    return Keyspace(size, FixedSize(size=1000), rng or np.random.default_rng(0))


def make_factory(keyspace=None, fanout=3, rate=10.0, put_fraction=0.0):
    spec = RequestSpec(
        arrivals=PoissonArrivals(rate=rate),
        fanout=FixedFanout(k=fanout),
        popularity=UniformPopularity(),
        put_fraction=put_fraction,
    )
    return RequestFactory(
        spec,
        keyspace or make_keyspace(),
        rng_arrivals=np.random.default_rng(1),
        rng_fanout=np.random.default_rng(2),
        rng_keys=np.random.default_rng(3),
        rng_kind=np.random.default_rng(4) if put_fraction > 0 else None,
    )


class TestKeyspace:
    def test_key_names_are_stable(self):
        ks = make_keyspace()
        assert ks.key_name(0) == "key:0000000000"
        assert ks.key_name(42) == "key:0000000042"

    def test_out_of_range_rejected(self):
        ks = make_keyspace(10)
        with pytest.raises(WorkloadError):
            ks.key_name(10)

    def test_sizes_fixed_at_creation(self):
        rng = np.random.default_rng(0)
        ks = Keyspace(50, UniformSize(lo=10, hi=20), rng)
        first = [ks.value_size(i) for i in range(50)]
        second = [ks.value_size(i) for i in range(50)]
        assert first == second

    def test_mean_value_size(self):
        assert make_keyspace().mean_value_size() == 1000.0

    def test_len(self):
        assert len(make_keyspace(7)) == 7

    def test_empty_rejected(self):
        with pytest.raises(WorkloadError):
            make_keyspace(0)


class TestRequestFactory:
    def test_request_has_distinct_keys(self):
        factory = make_factory(fanout=5)
        for _ in range(50):
            keys, _, _ = factory.next_request()
            assert len(set(keys)) == 5

    def test_keys_index_the_keyspace_and_carry_no_sizes(self):
        """A generated request names key indices; the key's own size
        applies (the cluster's key table holds it)."""
        ks = make_keyspace()
        factory = make_factory(keyspace=ks)
        keys, puts, sizes = factory.next_request()
        assert all(0 <= k < ks.size for k in keys)
        assert puts is None and sizes is None

    def test_fanout_exceeding_keyspace_rejected(self):
        with pytest.raises(WorkloadError):
            make_factory(keyspace=make_keyspace(2), fanout=3)

    def test_put_fraction_requires_rng(self):
        spec = RequestSpec(
            arrivals=PoissonArrivals(rate=1.0),
            fanout=FixedFanout(k=1),
            popularity=UniformPopularity(),
            put_fraction=0.5,
        )
        with pytest.raises(WorkloadError):
            RequestFactory(
                spec,
                make_keyspace(),
                rng_arrivals=np.random.default_rng(1),
                rng_fanout=np.random.default_rng(2),
                rng_keys=np.random.default_rng(3),
            )

    def test_put_fraction_statistics(self):
        factory = make_factory(fanout=4, put_fraction=0.5)
        puts = 0
        total = 0
        for _ in range(500):
            _, is_put, _ = factory.next_request()
            puts += sum(is_put)
            total += len(is_put)
        assert puts / total == pytest.approx(0.5, abs=0.05)

    def test_generated_counter(self):
        factory = make_factory()
        factory.next_request()
        factory.next_request()
        assert factory.generated == 2

    def test_invalid_put_fraction(self):
        with pytest.raises(WorkloadError):
            RequestSpec(
                arrivals=PoissonArrivals(rate=1.0),
                fanout=FixedFanout(k=1),
                popularity=UniformPopularity(),
                put_fraction=1.5,
            )


class TestLoadCalibration:
    def test_rate_and_load_are_inverses(self):
        mean_demand = 2e-3
        rate = arrival_rate_for_load(0.7, 4.0, mean_demand, 10)
        # rho = rate * fan-out * mean demand / servers
        assert rate * 4.0 * mean_demand / 10 == pytest.approx(0.7)

    def test_mean_speed_scales_capacity(self):
        slow = arrival_rate_for_load(0.5, 2.0, 1e-3, 4, mean_speed=0.5)
        fast = arrival_rate_for_load(0.5, 2.0, 1e-3, 4, mean_speed=1.0)
        assert fast == pytest.approx(2 * slow)

    def test_invalid_inputs(self):
        with pytest.raises(WorkloadError):
            arrival_rate_for_load(0, 1.0, 1e-3, 4)
        with pytest.raises(WorkloadError):
            arrival_rate_for_load(0.5, 0.0, 1e-3, 4)


class TestTraceReplayFactory:
    def records(self):
        return [
            TraceRecord(t=float(i), keys=[f"k{i}"], sizes=[100]) for i in range(6)
        ]

    def test_replays_in_order(self):
        factory = TraceReplayFactory(self.records())
        t = 0.0
        keys = []
        while True:
            gap = factory.next_interarrival(t)
            if gap == float("inf"):
                break
            t += gap
            keys.append(factory.next_request()[0][0])
        assert keys == [f"k{i}" for i in range(6)]

    def test_striding_partitions_records(self):
        a = TraceReplayFactory(self.records(), start=0, stride=2)
        b = TraceReplayFactory(self.records(), start=1, stride=2)
        assert len(a) == 3 and len(b) == 3
        assert a.next_request()[0] == ["k0"]
        assert b.next_request()[0] == ["k1"]

    def test_exhausted_factory_raises_on_make(self):
        factory = TraceReplayFactory(self.records()[:1])
        factory.next_request()
        with pytest.raises(WorkloadError):
            factory.next_request()

    def test_invalid_stride(self):
        with pytest.raises(WorkloadError):
            TraceReplayFactory([], stride=0)
        with pytest.raises(WorkloadError):
            TraceReplayFactory([], start=2, stride=2)

    def test_mean_ops(self):
        factory = TraceReplayFactory(self.records())
        assert factory.mean_ops_per_request() == 1.0
        assert TraceReplayFactory([]).mean_ops_per_request() == 0.0
