"""Unit tests for the service-time model.

A simulated server computes each service time itself, as
``op.demand / speed × noise`` from its :class:`ServiceModel`; the
service-time tests here drive a real :class:`Server` and read each op's
time in service off its timestamps.
"""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.kvstore.items import OpKind, Operation, Request, Response
from repro.kvstore.network import UniformLatencyNetwork
from repro.kvstore.server import Server
from repro.kvstore.service import ServiceModel
from repro.schedulers.registry import create_policy
from repro.sim.core import Environment
from repro.sim.rand import BatchedStream

OVERHEAD = 20e-6
BYTE_RATE = 200e6


class Sink:
    """A client that keeps what it is sent."""

    client_id = 0

    def __init__(self):
        self.responses = []

    def handle_response(self, response: Response) -> None:
        self.responses.append(response)


def serve(model: ServiceModel, n: int, size: int = 1000, at=()):
    """Serve ``n`` ops of ``size`` bytes on a FCFS server; return the ops.

    The ops all arrive at time 0, except that ``at`` may give the first
    ones later arrival times (an idle server starts them on arrival).
    """
    env = Environment()
    server = Server(
        env, 0, create_policy("fcfs").make_queue(), model,
        UniformLatencyNetwork(env, base_delay=0.0),
    )
    sink = Sink()
    server.connect(sink)
    ops = []
    for i in range(n):
        request = Request(request_id=i, client_id=0, arrival_time=0.0)
        op = Operation(
            request, f"k{i}", OpKind.GET, size, 0,
            model.per_op_overhead + size / model.byte_rate,
        )
        request.operations.append(op)
        ops.append(op)
        when = at[i] if i < len(at) else 0.0
        env._schedule(server.handle_operation, op, when)
    env.run()
    assert [r.operation for r in sink.responses] == ops
    return ops


def service_times(ops) -> list:
    return [op.finish_time - op.start_time for op in ops]


class TestDemand:
    def test_demand_formula(self):
        model = ServiceModel(per_op_overhead=10e-6, byte_rate=1e6)
        assert model.demand(1000) == pytest.approx(10e-6 + 1e-3)

    def test_zero_size_is_overhead_only(self):
        model = ServiceModel(per_op_overhead=5e-6, byte_rate=1e6)
        assert model.demand(0) == pytest.approx(5e-6)

    def test_negative_size_rejected(self):
        with pytest.raises(ConfigError):
            ServiceModel().demand(-1)


class TestValidation:
    def test_bad_overhead(self):
        with pytest.raises(ConfigError):
            ServiceModel(per_op_overhead=-1)

    def test_bad_byte_rate(self):
        with pytest.raises(ConfigError):
            ServiceModel(byte_rate=0)

    def test_bad_base_speed(self):
        with pytest.raises(ConfigError):
            ServiceModel(base_speed=0)

    def test_noise_requires_rng(self):
        with pytest.raises(ConfigError):
            ServiceModel(noise_cv=0.5)

    def test_bad_degradation_factor(self):
        with pytest.raises(ConfigError):
            ServiceModel(speed_steps=[(1.0, 0.0)])

    def test_bad_degradation_time(self):
        with pytest.raises(ConfigError):
            ServiceModel(speed_steps=[(-1.0, 0.5)])


class TestSpeedFactor:
    def test_no_degradations_is_base_speed(self):
        model = ServiceModel(base_speed=1.5)
        assert model.speed_factor(0.0) == 1.5
        assert model.speed_factor(1e9) == 1.5

    def test_step_function(self):
        model = ServiceModel(speed_steps=[(10.0, 0.5), (20.0, 1.0)])
        assert model.speed_factor(9.99) == 1.0
        assert model.speed_factor(10.0) == 0.5
        assert model.speed_factor(19.99) == 0.5
        assert model.speed_factor(20.0) == 1.0

    def test_unsorted_events_are_sorted(self):
        model = ServiceModel(speed_steps=[(20.0, 2.0), (10.0, 0.5)])
        assert model.speed_factor(15.0) == 0.5
        assert model.speed_factor(25.0) == 2.0

    def test_base_speed_multiplies_degradation(self):
        model = ServiceModel(base_speed=2.0, speed_steps=[(5.0, 0.5)])
        assert model.speed_factor(6.0) == pytest.approx(1.0)


class TestServiceTimes:
    def test_degraded_server_is_slower(self):
        model = ServiceModel(speed_steps=[(10.0, 0.5)])
        fast, slow = service_times(serve(model, 2, at=(0.0, 15.0)))
        assert slow == pytest.approx(2.0 * fast)

    def test_noise_has_mean_one(self):
        rng = np.random.default_rng(0)
        model = ServiceModel(noise_cv=0.3, rng=rng)
        base = model.demand(1000)
        samples = np.array(service_times(serve(model, 5000)))
        assert samples.mean() == pytest.approx(base, rel=0.03)

    def test_noise_cv_matches(self):
        rng = np.random.default_rng(1)
        model = ServiceModel(noise_cv=0.5, rng=rng)
        samples = np.array(service_times(serve(model, 20000)))
        cv = samples.std() / samples.mean()
        assert cv == pytest.approx(0.5, rel=0.1)

    def test_rate_sample(self):
        # Served in half the demanded time -> each sample is speed 2.0.
        env = Environment()
        model = ServiceModel(base_speed=2.0)
        server = Server(
            env, 0, create_policy("fcfs").make_queue(), model,
            UniformLatencyNetwork(env), rate_alpha=1.0,
        )
        server.connect(Sink())
        server._rate = 1.0
        request = Request(request_id=0, client_id=0, arrival_time=0.0)
        op = Operation(request, "k", OpKind.GET, 1000, 0, model.demand(1000))
        request.operations.append(op)
        server.handle_operation(op)
        env.run()
        assert server.measured_rate == pytest.approx(2.0)

    def test_rate_sample_guards_zero(self):
        # A zero-demand op is served in zero time: the sample is the
        # nominal speed, not a division by zero.
        env = Environment()
        model = ServiceModel(per_op_overhead=0.0, base_speed=1.25)
        server = Server(
            env, 0, create_policy("fcfs").make_queue(), model,
            UniformLatencyNetwork(env), rate_alpha=1.0,
        )
        server.connect(Sink())
        server._rate = 0.5
        request = Request(request_id=0, client_id=0, arrival_time=0.0)
        op = Operation(request, "k", OpKind.GET, 0, 0, 0.0)
        request.operations.append(op)
        server.handle_operation(op)
        env.run()
        assert server.measured_rate == 1.25

    def test_repr(self):
        assert "speed_steps=0" in repr(ServiceModel())


class TestServiceNoise:
    """The server's noise is its generator's lognormal lane, value for value."""

    CV = 0.1

    def expected(self, seed: int, demand: float, speeds) -> list:
        """``demand / speed × lognormal``, drawn scalar from a fresh stream."""
        sigma2 = float(np.log(1.0 + self.CV**2))
        reference = BatchedStream(np.random.default_rng(seed))
        return [
            demand / speed * reference.lognormal(-sigma2 / 2.0, sigma2**0.5)
            for speed in speeds
        ]

    @pytest.mark.parametrize(
        "steps",
        [(), ((2e-3, 0.5), (6e-3, 2.0), (9e-3, 1.0))],
        ids=["steady", "slow-node-steps"],
    )
    def test_first_500_service_times_are_the_scalar_draws(self, steps):
        model = ServiceModel(
            per_op_overhead=OVERHEAD,
            byte_rate=BYTE_RATE,
            base_speed=1.5,
            speed_steps=steps,
            noise_cv=self.CV,
            rng=np.random.default_rng(3),
        )
        ops = serve(model, 500, size=4096)
        demand = OVERHEAD + 4096 / BYTE_RATE
        speeds = [model.speed_factor(op.start_time) for op in ops]
        if steps:  # every step was served through
            assert set(speeds) == {0.75, 1.5, 3.0}
            assert ops[-1].start_time > 9e-3
        expected = self.expected(3, demand, speeds)
        for op, service_time in zip(ops, expected):
            assert op.finish_time == op.start_time + service_time

    def test_lane_grows_from_a_small_block(self):
        stream = BatchedStream(np.random.default_rng(3))
        model = ServiceModel(noise_cv=self.CV, rng=stream)
        serve(model, 100)
        blocks = [lane[0].shape[0] for lane in stream._lanes.values()]
        assert len(blocks) == 1
        assert blocks[0] <= 128
