"""Tests for the start-time fair queueing baseline."""

from repro.kvstore.items import OpKind, Operation, Request
from repro.schedulers.registry import create_policy

from tests.schedulers.helpers import drain


def client_op(client_id: int, demand: float, request_id: int = 0) -> Operation:
    request = Request(request_id=request_id, client_id=client_id, arrival_time=0.0)
    op = Operation(
        request=request,
        key=f"c{client_id}-r{request_id}",
        kind=OpKind.GET,
        value_size=int(demand * 1e6),
        server_id=0,
        demand=demand,
    )
    request.operations.append(op)
    return op


class TestSfq:
    def test_registered(self):
        assert create_policy("sfq").name == "sfq"

    def test_interleaves_clients_fairly(self):
        """Client 0 floods the queue; client 1's single op is served after
        at most one of client 0's ops, not after the whole flood."""
        queue = create_policy("sfq").make_queue()
        for i in range(5):
            queue.push(client_op(0, demand=1.0, request_id=i), 0.0)
        queue.push(client_op(1, demand=1.0, request_id=99), 0.0)
        order = [(op.request.client_id, op.request_id) for op in drain(queue)]
        position = order.index((1, 99))
        assert position <= 1  # near the front despite arriving last

    def test_round_robin_between_equal_flows(self):
        queue = create_policy("sfq").make_queue()
        for i in range(3):
            queue.push(client_op(0, demand=1.0, request_id=i), 0.0)
            queue.push(client_op(1, demand=1.0, request_id=i), 0.0)
        clients = [op.request.client_id for op in drain(queue)]
        # Perfect alternation for equal weights and demands.
        assert clients == [0, 1, 0, 1, 0, 1]

    def test_small_demand_flow_gets_more_ops(self):
        """A flow of small ops progresses through more operations per unit
        of virtual time than a flow of big ops (fair in *work*, not ops)."""
        queue = create_policy("sfq").make_queue()
        for i in range(4):
            queue.push(client_op(0, demand=1.0, request_id=i), 0.0)
            queue.push(client_op(1, demand=4.0, request_id=i), 0.0)
        order = [op.request.client_id for op in drain(queue)]
        # In the first six served ops, the small-demand client got more.
        head = order[:6]
        assert head.count(0) > head.count(1)

    def test_virtual_time_monotone(self):
        queue = create_policy("sfq").make_queue()
        seen = []
        for i in range(4):
            queue.push(client_op(i % 2, demand=2.0, request_id=i), 0.0)
        while len(queue):
            queue.pop(0.0)
            seen.append(queue.virtual_time)
        assert seen == sorted(seen)

    def test_runs_in_cluster(self):
        from repro.kvstore.cluster import run_cluster
        from repro.kvstore.config import SimulationConfig

        from tests.conftest import small_config

        result = run_cluster(
            small_config(scheduler="sfq"), SimulationConfig(max_requests=200)
        )
        assert result.requests_completed == 200
