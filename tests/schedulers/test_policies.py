"""Ordering-semantics tests for each baseline scheduling policy."""

import pytest

from repro.schedulers.rein import TAG_BOTTLENECK, BottleneckTagger, ReinMlPolicy
from repro.schedulers.registry import create_policy
from repro.schedulers.sjf import TAG_TOTAL_DEMAND, TotalDemandTagger

from tests.schedulers.helpers import drain, make_multiget, make_op


class TestFcfs:
    def test_serves_in_arrival_order(self):
        queue = create_policy("fcfs").make_queue()
        ops = [make_op(demand=d, request_id=i) for i, d in enumerate([5, 1, 3])]
        for i, op in enumerate(ops):
            queue.push(op, float(i))
        assert drain(queue) == ops


class TestSjfOp:
    """``sjf-req`` on untagged operations is per-operation SJF."""

    def test_smallest_operation_first(self):
        queue = create_policy("sjf-req").make_queue()
        for demand in (3.0, 1.0, 2.0):
            queue.push(make_op(demand=demand), 0.0)
        assert [o.demand for o in drain(queue)] == [1.0, 2.0, 3.0]

    def test_fifo_among_equal_demands(self):
        queue = create_policy("sjf-req").make_queue()
        ops = [make_op(demand=1.0, request_id=i) for i in range(3)]
        for op in ops:
            queue.push(op, 0.0)
        assert [o.request_id for o in drain(queue)] == [0, 1, 2]


class TestSjfReq:
    def test_orders_by_request_total_demand(self):
        queue = create_policy("sjf-req").make_queue()
        tagger = TotalDemandTagger()
        big = make_multiget([(0, 1.0), (1, 9.0)], request_id=1)  # total 10
        small = make_multiget([(0, 2.0)], request_id=2)  # total 2
        for request in (big, small):
            tagger.tag_request(request, 0.0, None)
        queue.push(big.operations[0], 0.0)  # the op itself is small (1.0)
        queue.push(small.operations[0], 0.0)
        served = drain(queue)
        assert served[0].request_id == 2  # smaller *request* first

    def test_tagger_stamps_all_ops(self):
        request = make_multiget([(0, 1.0), (1, 2.0)])
        TotalDemandTagger().tag_request(request, 0.0, None)
        assert all(
            op.tag[TAG_TOTAL_DEMAND] == pytest.approx(3.0)
            for op in request.operations
        )


class TestSbf:
    def test_orders_by_bottleneck(self):
        queue = create_policy("sbf").make_queue()
        tagger = BottleneckTagger()
        # Request A: large total (4.0) but small bottleneck (2.0 per server).
        a = make_multiget([(0, 2.0), (1, 2.0)], request_id=1)
        # Request B: small total (3.0) but one big slice (bottleneck 3.0).
        b = make_multiget([(0, 3.0)], request_id=2)
        for request in (a, b):
            tagger.tag_request(request, 0.0, None)
        queue.push(b.operations[0], 0.0)
        queue.push(a.operations[0], 0.0)
        assert [o.request_id for o in drain(queue)] == [1, 2]

    def test_bottleneck_tag_value(self):
        request = make_multiget([(0, 1.0), (0, 2.0), (1, 2.5)])
        BottleneckTagger().tag_request(request, 0.0, None)
        assert request.operations[0].tag[TAG_BOTTLENECK] == pytest.approx(3.0)


class TestReinMl:
    def test_small_bottlenecks_before_large(self):
        policy = ReinMlPolicy()
        queue = policy.make_queue()
        tagger = policy.make_tagger()
        small = [make_multiget([(0, 1.0)], request_id=i) for i in range(2)]
        large = make_multiget([(0, 40.0)], request_id=77)
        for request in small[:1] + [large] + small[1:]:
            tagger.tag_request(request, 0.0, None)
            queue.push(request.operations[0], 0.0)
        order = [o.request_id for o in drain(queue)]
        assert order[-1] == 77

    def test_aging_promotes_starving_op(self):
        policy = ReinMlPolicy()
        queue = policy.make_queue()
        tagger = policy.make_tagger()
        # Seed the mean with a small request so the giant classifies low.
        seed = make_multiget([(0, 1.0)], request_id=1)
        tagger.tag_request(seed, 0.0, None)
        queue.push(seed.operations[0], 0.0)
        large = make_multiget([(0, 40.0)], request_id=77)
        tagger.tag_request(large, 0.0, None)
        queue.push(large.operations[0], 0.0)
        small = make_multiget([(0, 1.0)], request_id=2)
        tagger.tag_request(small, 0.0, None)
        queue.push(small.operations[0], 0.0)
        # Far in the future the large op has aged past its budget and is
        # promoted ahead of both small ones.
        served = queue.pop(now=1e6)
        assert served.request_id == 77
        assert queue.promotions == 1
