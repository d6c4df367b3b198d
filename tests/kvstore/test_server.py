"""Unit tests for the simulated server (direct harness, no full cluster)."""

import pytest

from repro.kvstore.items import OpKind, Operation, Request
from repro.kvstore.network import UniformLatencyNetwork
from repro.kvstore.server import Server
from repro.kvstore.service import ServiceModel
from repro.schedulers.registry import create_policy
from repro.sim.core import NORMAL


class FakeClient:
    """Collects responses like the real client would."""

    def __init__(self, client_id=0):
        self.client_id = client_id
        self.responses = []

    def handle_response(self, response):
        self.responses.append(response)


def make_server(env, scheduler="fcfs", base_delay=0.0, **service_kwargs):
    policy = create_policy(scheduler)
    queue = policy.make_queue()
    service = ServiceModel(
        per_op_overhead=1e-3, byte_rate=1e6, **service_kwargs
    )
    network = UniformLatencyNetwork(env, base_delay=base_delay)
    server = Server(env, 0, queue, service, network)
    client = FakeClient()
    server.clients[0] = client
    return server, client


def make_op(key="k", size=1000, client_id=0, arrival=0.0, kind=OpKind.GET):
    request = Request(request_id=1, client_id=client_id, arrival_time=arrival)
    op = Operation(
        request=request,
        key=key,
        kind=kind,
        value_size=size,
        server_id=0,
        demand=1e-3 + size / 1e6,
    )
    request.operations.append(op)
    return op


class TestServing:
    def test_serves_stored_key(self, env):
        """There is no store: any key is served at the size the operation
        names, a put exactly like a get."""
        server, client = make_server(env)
        get = make_op("never-written", size=1000)
        put = make_op("k", size=4000, kind=OpKind.PUT)
        server.handle_operation(get)
        server.handle_operation(put)
        env.run(until=1.0)
        assert [r.operation for r in client.responses] == [get, put]
        assert get.service_time == pytest.approx(1e-3 + 1000 / 1e6)
        assert put.service_time == pytest.approx(1e-3 + 4000 / 1e6)
        assert server.ops_served == 2

    def test_service_time_matches_model(self, env):
        server, client = make_server(env)
        op = make_op("k")
        server.handle_operation(op)
        env.run(until=1.0)
        # demand = 1ms + 1ms = 2ms at nominal speed, no noise
        assert op.service_time == pytest.approx(2e-3)

    def test_ops_served_counter_and_busy_time(self, env):
        server, client = make_server(env)
        for _ in range(3):
            server.handle_operation(make_op("k"))
        env.run(until=1.0)
        assert server.ops_served == 3
        assert server.busy_time == pytest.approx(3 * 2e-3)
        assert server.utilization(1.0) == pytest.approx(6e-3)

    def test_server_sleeps_when_idle_and_wakes_on_push(self, env):
        server, client = make_server(env)
        env._schedule(server.handle_operation, make_op("k"), 5.0, NORMAL)
        env.run(until=10.0)
        assert len(client.responses) == 1
        op = client.responses[0].operation
        assert op.start_time == pytest.approx(5.0)

    def test_fifo_order_under_fcfs(self, env):
        server, client = make_server(env)
        server.handle_operation(make_op("a"))
        server.handle_operation(make_op("b"))
        env.run(until=1.0)
        keys = [r.operation.key for r in client.responses]
        assert keys == ["a", "b"]


class TestSameInstantDeliveries:
    @pytest.mark.parametrize("base_delay", [0.0, 1e-3])
    def test_idle_server_starts_first_delivered(self, env, base_delay):
        """A delivery to an idle server starts service at once: of several
        same-instant deliveries the first delivered is served first even
        where the scheduler would prefer a later one, and the scheduler
        orders what queues up behind it — at zero network delay (URGENT
        deliveries) exactly as at a positive one (NORMAL deliveries)."""
        server, client = make_server(env, scheduler="sjf-req", base_delay=base_delay)
        for key, size in (("big", 4000), ("mid", 2000), ("small", 100)):
            server.network.send(
                ("client", 0), ("server", 0), make_op(key, size),
                server.handle_operation,
            )
        env.run()
        assert [r.operation.key for r in client.responses] == ["big", "small", "mid"]


class TestPause:
    """The fault plan's ``Pause``: work parks, nothing is dropped."""

    def test_queued_work_waits_for_resume(self, env):
        server, client = make_server(env)
        server.pause()
        server.handle_operation(make_op("k"))
        env._schedule(lambda _: server.resume(), None, 0.2, NORMAL)
        env.run(until=1.0)
        assert server.ops_served == 1
        assert client.responses[0].operation.start_time == pytest.approx(0.2)

    def test_in_service_op_completes_during_pause(self, env):
        server, client = make_server(env)
        server.handle_operation(make_op("k"))  # starts at once: 2 ms
        server.handle_operation(make_op("k"))  # queued behind it
        server.pause()
        env.run(until=0.5)
        assert len(client.responses) == 1
        assert client.responses[0].operation.finish_time == pytest.approx(2e-3)
        assert len(server.queue) == 1
        assert server.ops_dropped == 0
        server.resume()
        env.run(until=1.0)
        assert server.ops_served == 2

    def test_crash_during_pause_drops_parked_work(self, env):
        server, client = make_server(env)
        server.pause()
        for _ in range(3):
            server.handle_operation(make_op("k"))
        server.crash()
        assert server.ops_dropped == 3
        assert len(server.queue) == 0
        server.recover()
        server.resume()
        env.run(until=1.0)
        assert client.responses == []

    def test_recover_during_pause_stays_paused(self, env):
        server, client = make_server(env)
        server.crash()
        server.pause()
        server.recover()
        server.handle_operation(make_op("k"))
        env.run(until=0.5)
        assert client.responses == []
        assert len(server.queue) == 1
        server.resume()
        env.run(until=1.0)
        assert len(client.responses) == 1


class TestFeedback:
    def test_response_carries_feedback(self, env):
        server, client = make_server(env)
        server.handle_operation(make_op("k"))
        env.run(until=1.0)
        feedback = client.responses[0].feedback
        assert feedback is not None
        assert feedback.server_id == 0
        assert feedback.queue_length == 0  # nothing left behind

    def test_feedback_disabled(self, env):
        policy = create_policy("fcfs")
        queue = policy.make_queue()
        network = UniformLatencyNetwork(env, base_delay=0.0)
        server = Server(
            env, 0, queue, ServiceModel(per_op_overhead=1e-3, byte_rate=1e6),
            network, piggyback_feedback=False,
        )
        client = FakeClient()
        server.clients[0] = client
        server.handle_operation(make_op("k"))
        env.run(until=1.0)
        assert client.responses[0].feedback is None

    def test_feedback_reports_queued_work(self, env):
        server, client = make_server(env)
        for key in ("a", "b", "c"):
            server.handle_operation(make_op(key))
        feedback = server.make_feedback()
        # Three ops of 2ms each queued (one may be in service already).
        assert feedback.queued_work > 0
        assert feedback.queue_length >= 2

    def test_degraded_server_learns_its_rate(self, env):
        server, client = make_server(env, speed_steps=[(0.0, 0.5)])
        for _ in range(20):
            server.handle_operation(make_op("k"))
        env.run(until=5.0)
        # Measured rate converges toward the degraded speed 0.5.
        assert server.measured_rate == pytest.approx(0.5, rel=0.1)

    def test_in_service_residual(self, env):
        server, client = make_server(env)
        server.handle_operation(make_op("k"))
        env.run(until=1e-3)  # halfway through the 2ms service
        assert server.in_service_residual(env.now) == pytest.approx(1e-3)
        env.run()
        assert server.in_service_residual(env.now) == 0.0
