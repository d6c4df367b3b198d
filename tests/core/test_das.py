"""Unit tests for the DAS queue and tagger."""

import pytest

from repro.core.das import K_INIT, TAG_RPT, DasPolicy, DasQueue, DasTagger
from repro.core.estimator import ServerEstimates
from repro.errors import ConfigError
from repro.kvstore.items import Feedback

from tests.schedulers.helpers import drain, make_multiget, make_op


def das_queue(k: float = 2.0, **kwargs) -> DasQueue:
    """A queue with ``k`` pinned: no adaptation, so bands are predictable."""
    queue = DasQueue(adaptive=False, **kwargs)
    queue.k = k
    return queue


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


class TestFrontOrdering:
    def test_srpt_order_within_front_band(self):
        queue = das_queue()
        for i, rpt in enumerate([3.0, 1.0, 2.0]):
            push_tagged(queue, rpt, request_id=i)
        assert [o.tag[TAG_RPT] for o in drain(queue)] == [1.0, 2.0, 3.0]

    def test_fifo_front_when_srpt_disabled(self):
        queue = das_queue(srpt_front=False)
        ops = [push_tagged(queue, rpt, request_id=i, now=float(i))
               for i, rpt in enumerate([3.0, 1.0, 2.0])]
        assert drain(queue, now=10.0) == ops

    def test_untagged_op_falls_back_to_demand(self):
        queue = das_queue()
        op_small = make_op(demand=1.0, request_id=1)
        op_large = make_op(demand=5.0, request_id=2)
        queue.push(op_large, 0.0)
        queue.push(op_small, 0.0)
        assert queue.pop(0.0) is op_small


class TestDemotion:
    def test_outlier_goes_to_last_band(self):
        queue = das_queue()  # fixed k=2
        push_tagged(queue, 1.0, request_id=0)  # seeds the scale
        giant = push_tagged(queue, 10.0, request_id=1)  # 10 > 2*1
        tiny = push_tagged(queue, 1.0, request_id=2)
        assert queue.demotions == 1
        assert queue.last_length == 1
        order = drain(queue)
        assert order[-1] is giant
        assert order[0].request_id == 0 or order[0] is tiny

    def test_first_op_never_demoted(self):
        queue = das_queue()
        push_tagged(queue, 100.0)
        assert queue.demotions == 0

    def test_no_demotion_when_last_band_disabled(self):
        queue = das_queue(last_band=False)
        push_tagged(queue, 1.0)
        push_tagged(queue, 100.0)
        assert queue.demotions == 0
        assert queue.last_length == 0

    def test_last_band_keeps_rpt_order(self):
        # The slow scale EWMA keeps the threshold near the seed op even as
        # the first outlier folds in: 50 lifts it only to 2 * 3.45.
        queue = das_queue()
        push_tagged(queue, 1.0, request_id=0)
        a = push_tagged(queue, 50.0, request_id=1)
        b = push_tagged(queue, 10.0, request_id=2)
        assert queue.demotions == 2
        queue.pop(0.0)  # the small front op
        assert queue.pop(0.0) is b  # smaller demoted RPT first
        assert queue.pop(0.0) is a

    def test_threshold_follows_scale(self):
        queue = das_queue()
        push_tagged(queue, 4.0)
        assert queue.rpt_scale == pytest.approx(4.0)
        assert queue.threshold == pytest.approx(8.0)


class TestStarvationBound:
    def test_aged_op_promoted_to_front(self):
        queue = das_queue()
        push_tagged(queue, 1.0, request_id=0, now=0.0)
        giant = push_tagged(queue, 10.0, request_id=1, now=0.0)
        assert queue.demotions == 1
        # Keep feeding small ops; far enough in the future the giant's wait
        # exceeds STARVATION_FACTOR * threshold (30 * 2.86) and it jumps
        # the queue.
        push_tagged(queue, 1.0, request_id=2, now=100.0)
        served = queue.pop(now=100.0)
        assert served is giant
        assert queue.promotions == 1

    def test_no_promotion_before_budget(self):
        queue = das_queue()
        push_tagged(queue, 1.0, request_id=0)
        push_tagged(queue, 10.0, request_id=1)
        assert queue.pop(now=50.0).request_id == 0
        assert queue.promotions == 0


class TestPromotionTombstones:
    """Promotions tombstone heap entries; band accounting must see through.

    Regression: the old implementation tracked promoted ops in an id()
    set, so ``last_length`` kept counting tombstones and draining a
    pure-tombstone last band raised IndexError.
    """

    def _promote_all(self, n_giants=4):
        queue = das_queue()
        push_tagged(queue, 1.0, request_id=0, now=0.0)  # seeds the scale
        giants = [
            push_tagged(queue, 10.0 + i, request_id=i + 1, now=0.0)
            for i in range(n_giants)
        ]
        assert queue.demotions == n_giants
        assert queue.last_length == n_giants
        return queue, giants

    def test_band_lengths_exclude_tombstones(self):
        queue, giants = self._promote_all()
        # Far in the future every giant is past its starvation budget;
        # one pop promotes all of them and serves the first.
        first = queue.pop(now=1e6)
        assert first in giants
        assert queue.promotions == len(giants)
        assert queue.last_length == 0  # all tombstones, none live
        assert queue.front_length == len(giants) - 1 + 1  # rest + seed op

    def test_drain_after_promoting_every_last_band_op(self):
        queue, giants = self._promote_all()
        served = [queue.pop(now=1e6) for _ in range(len(queue))]
        # No IndexError on the pure-tombstone heap, nothing lost, nothing
        # served twice: the seed op plus every giant, exactly once each.
        assert len(queue) == 0
        assert queue.last_length == 0 and queue.front_length == 0
        assert sorted(op.request_id for op in served) == list(
            range(len(giants) + 1)
        )

    def test_promoted_op_annotated(self):
        queue, giants = self._promote_all(n_giants=1)
        served = queue.pop(now=1e6)
        assert served is giants[0]
        from repro.obs import OBS_PROMOTED

        assert served.tag[OBS_PROMOTED] is True

    def test_mixed_serve_and_promote_keeps_counts_consistent(self):
        queue = das_queue()
        push_tagged(queue, 1.0, request_id=0, now=0.0)
        push_tagged(queue, 10.0, request_id=1, now=0.0)
        push_tagged(queue, 20.0, request_id=2, now=0.0)
        queue.pop(now=0.0)  # seed op from the front
        queue.pop(now=0.0)  # smallest giant via _pop_last
        assert queue.last_length == 1
        queue.pop(now=1e6)  # remaining giant, via promotion
        assert queue.promotions == 1
        assert queue.last_length == 0
        assert len(queue) == 0

    def test_band_annotations_written_at_enqueue(self):
        from repro.obs import OBS_BAND, OBS_THRESHOLD

        queue = das_queue()
        seed = push_tagged(queue, 1.0, request_id=0)
        giant = push_tagged(queue, 50.0, request_id=1)
        assert seed.tag[OBS_BAND] == "front"
        assert giant.tag[OBS_BAND] == "last"
        assert giant.tag[OBS_THRESHOLD] == pytest.approx(2.0)  # k=2 * scale 1


class TestPolicy:
    def test_policy_builds_working_queue(self):
        queue = DasPolicy().make_queue()
        assert isinstance(queue, DasQueue)

    def test_needs_feedback_flag(self):
        assert DasPolicy.needs_feedback is True

    def test_ablation_flags_propagate(self):
        policy = DasPolicy(adaptive=False, last_band=False, srpt_front=False)
        queue = policy.make_queue()
        assert queue._adaptive is False
        assert queue._last_band_enabled is False
        assert queue._srpt_front is False

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            DasPolicy(k_min=0.0).make_queue()
        with pytest.raises(ConfigError):
            DasPolicy(k_min=K_INIT * 2).make_queue()
        with pytest.raises(TypeError):
            DasPolicy(gain=0.2)  # a constant, not a knob

    def test_adaptive_demotes_more_under_pressure(self):
        queue = DasPolicy(k_min=1.5).make_queue()
        # Build sustained pressure with a long queue of small ops.
        now = 0.0
        for i in range(50):
            push_tagged(queue, 1.0, request_id=i, now=now)
            now += 0.01
        assert queue.k < K_INIT  # shrank under pressure
