"""Unit tests for the request/operation data model."""

import math

import pytest

from repro.kvstore.items import OpKind, Operation, Request


def make_request(slices):
    """Build a request with operations described by (server_id, demand)."""
    request = Request(request_id=1, client_id=0, arrival_time=10.0)
    for i, (server_id, demand) in enumerate(slices):
        request.operations.append(
            Operation(
                request=request,
                key=f"k{i}",
                kind=OpKind.GET,
                value_size=100,
                server_id=server_id,
                demand=demand,
                index=i,
            )
        )
    return request


def built_requests(n=50):
    """Requests as a simulated client builds them (not dispatched)."""
    from repro.kvstore.cluster import Cluster
    from tests.integration.test_sim_golden import cell

    client = Cluster(cell()).clients[0]
    return [client._build_request() for _ in range(n)]


class TestRequest:
    def test_fanout(self):
        request = make_request([(0, 1.0), (1, 2.0), (2, 3.0)])
        assert request.fanout == 3

    def test_total_demand(self):
        """The simulated client adds a request's demands up as it builds it."""
        for request in built_requests():
            demands = [op.demand for op in request.operations]
            assert request.total_demand == pytest.approx(sum(demands))

    def test_demands_by_server_aggregates_slices(self):
        request = make_request([(0, 1.0), (0, 2.0), (1, 5.0)])
        assert request.demands_by_server() == {0: pytest.approx(3.0), 1: 5.0}

    def test_bottleneck_is_largest_slice(self):
        request = make_request([(0, 1.0), (0, 2.0), (1, 2.5)])
        assert request.bottleneck_demand() == pytest.approx(3.0)

    def test_bottleneck_empty_request(self):
        request = Request(request_id=1, client_id=0, arrival_time=0.0)
        assert request.bottleneck_demand() == 0.0

    def test_remaining_counts_unfinished(self):
        request = make_request([(0, 1.0), (1, 1.0)])
        assert request.remaining == 2
        request.operations[0].finish_time = 11.0
        assert request.remaining == 1

    def test_done_and_rct(self):
        request = make_request([(0, 1.0)])
        assert not request.done
        assert math.isnan(request.rct)
        request.completion_time = 12.5
        assert request.done
        assert request.rct == pytest.approx(2.5)

    def test_total_bytes(self):
        for request in built_requests():
            sizes = [op.value_size for op in request.operations]
            assert request.total_bytes == sum(sizes)
        assert Request(request_id=1, client_id=0, arrival_time=0.0).total_bytes == 0

    def test_repr(self):
        request = make_request([(0, 1.0)])
        assert "fanout=1" in repr(request)


class TestOperation:
    def test_wait_and_service_times(self):
        request = make_request([(0, 1.0)])
        op = request.operations[0]
        op.enqueue_time = 1.0
        op.start_time = 3.0
        op.finish_time = 4.5
        assert op.wait_time == pytest.approx(2.0)
        assert op.service_time == pytest.approx(1.5)

    def test_request_id_passthrough(self):
        request = make_request([(0, 1.0)])
        assert request.operations[0].request_id == 1

    def test_fresh_timestamps_are_nan(self):
        request = make_request([(0, 1.0)])
        op = request.operations[0]
        assert math.isnan(op.dispatch_time)
        assert math.isnan(op.finish_time)

    def test_tag_dict_is_per_operation(self):
        request = make_request([(0, 1.0), (1, 1.0)])
        request.operations[0].tag["x"] = 1
        assert "x" not in request.operations[1].tag

    def test_repr(self):
        request = make_request([(3, 0.5)])
        assert "server=3" in repr(request.operations[0])
