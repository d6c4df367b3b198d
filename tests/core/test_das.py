"""Unit tests for the DAS tagger and queue, and the X4 heavy-tail pin."""

import dataclasses

import pytest

from repro.core.das import TAG_RPT, DasPolicy, DasTagger
from repro.core.estimator import ServerEstimates
from repro.experiments.scenarios import get_scenario
from repro.kvstore.cluster import run_cluster
from repro.kvstore.items import Feedback
from repro.schedulers.keyed import KeyedHeapQueue

from tests.schedulers.helpers import drain, make_multiget, make_op


def push_tagged(queue, rpt, request_id=0, now=0.0):
    op = make_op(demand=rpt, request_id=request_id, tag={TAG_RPT: rpt})
    queue.push(op, now)
    return op


class TestTagger:
    def test_stamps_rpt(self):
        request = make_multiget([(0, 1.0), (1, 2.0)])
        DasTagger().tag_request(request, 0.0, None)
        for op in request.operations:
            assert op.tag == {TAG_RPT: pytest.approx(2.0)}

    def test_rpt_uses_rate_estimates(self):
        request = make_multiget([(0, 1.0), (1, 2.0)])
        view = ServerEstimates(alpha_rate=1.0, drain=False)
        view.observe(Feedback(0, 0.0, 0, 0.25, 0.0))  # server 0 at 25% speed
        DasTagger().tag_request(request, 0.0, view)
        assert request.operations[0].tag[TAG_RPT] == pytest.approx(4.0)


class TestOrdering:
    def test_smallest_rpt_first(self):
        queue = DasPolicy().make_queue()
        for i, rpt in enumerate([3.0, 1.0, 2.0]):
            push_tagged(queue, rpt, request_id=i)
        assert [o.tag[TAG_RPT] for o in drain(queue)] == [1.0, 2.0, 3.0]

    def test_outlier_waits_only_for_smaller_rpts(self):
        # No demotion band: a giant RPT is one more key in the heap, served
        # as soon as nothing smaller is queued.
        queue = DasPolicy().make_queue()
        push_tagged(queue, 1.0, request_id=0)
        giant = push_tagged(queue, 1000.0, request_id=1)
        assert queue.pop(0.0).request_id == 0
        push_tagged(queue, 2000.0, request_id=2, now=1.0)
        assert queue.pop(1.0) is giant

    def test_fifo_among_equal_rpts(self):
        queue = DasPolicy().make_queue()
        ops = [push_tagged(queue, 1.0, request_id=i) for i in range(4)]
        assert drain(queue) == ops

    def test_untagged_op_falls_back_to_demand(self):
        queue = DasPolicy().make_queue()
        op_small = make_op(demand=1.0, request_id=1)
        op_large = make_op(demand=5.0, request_id=2)
        queue.push(op_large, 0.0)
        queue.push(op_small, 0.0)
        assert queue.pop(0.0) is op_small


class TestPolicy:
    def test_policy_builds_working_queue(self):
        queue = DasPolicy().make_queue()
        assert isinstance(queue, KeyedHeapQueue)
        push_tagged(queue, 1.0)
        assert len(queue) == 1

    def test_needs_feedback_flag(self):
        assert DasPolicy.needs_feedback is True

    def test_invalid_params(self):
        # DAS has no knobs: every former band parameter is now an error.
        for name in ("adaptive", "last_band", "srpt_front", "k_min"):
            with pytest.raises(TypeError):
                DasPolicy(**{name: False})
        assert DasPolicy().params == {}


def _x4_cell(mix: str, scheduler: str) -> float:
    """Mean RCT of one X4 cell at ``--scale 0.25``, seed 4."""
    point = next(p for p in get_scenario("X4", 0.25).points if p.x == mix)
    config = dataclasses.replace(point.config, seed=4, scheduler=scheduler)
    return run_cluster(config, point.sim).summary().mean


@pytest.mark.parametrize("mix", ["pareto-1.3", "pareto-1.5"])
def test_das_does_not_collapse_on_heavy_tails(mix):
    """DAS stays within 10% of plain SBF on X4's heavy-tailed mixes.

    With an LRPT-last demotion band these cells collapsed: DAS's mean was
    6.2x (pareto-1.3) and 6.3x (pareto-1.5) SBF's, because demoted ops
    waited out their whole starvation budget and held their fan-out-8
    requests with them.
    """
    das = _x4_cell(mix, "das")
    sbf = _x4_cell(mix, "sbf")
    assert das <= 1.10 * sbf, f"{mix}: DAS mean {das:.4f}s vs SBF {sbf:.4f}s"
