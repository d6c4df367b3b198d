"""Tests for the scheduler interfaces and registry."""

import pytest

from repro.errors import SchedulerError, UnknownSchedulerError
from repro.schedulers.base import NullTagger, SchedulingPolicy
from repro.schedulers.registry import (
    available_schedulers,
    create_policy,
    register_policy,
)

from tests.schedulers.helpers import drain, make_op


class TestBookkeeping:
    def test_length_tracks_push_pop(self):
        queue = create_policy("fcfs").make_queue()
        assert len(queue) == 0
        queue.push(make_op(), 0.0)
        queue.push(make_op(), 0.0)
        assert len(queue) == 2
        queue.pop(0.0)
        assert len(queue) == 1

    def test_queued_demand_tracks_contents(self):
        queue = create_policy("fcfs").make_queue()
        queue.push(make_op(demand=1.5), 0.0)
        queue.push(make_op(demand=2.5), 0.0)
        assert queue.queued_demand == pytest.approx(4.0)
        queue.pop(0.0)
        assert queue.queued_demand == pytest.approx(2.5)
        queue.pop(0.0)
        assert queue.queued_demand == pytest.approx(0.0)

    def test_pop_empty_raises(self):
        queue = create_policy("fcfs").make_queue()
        with pytest.raises(SchedulerError):
            queue.pop(0.0)

    def test_push_stamps_enqueue_time(self):
        queue = create_policy("fcfs").make_queue()
        op = make_op()
        queue.push(op, 3.5)
        assert op.enqueue_time == 3.5


class TestRegistry:
    def test_known_schedulers_present(self):
        assert available_schedulers() == [
            "das", "fcfs", "laned", "rein-ml", "sbf", "sfq", "sjf-req",
        ]

    def test_unknown_scheduler_error_lists_known(self):
        with pytest.raises(UnknownSchedulerError) as info:
            create_policy("mystery")
        assert "fcfs" in str(info.value)

    def test_create_with_params(self):
        policy = create_policy("laned", small_share=0.8)
        assert policy.params["small_share"] == 0.8

    @pytest.mark.parametrize("name", ["das", "fcfs", "sbf", "rein-ml", "sfq", "sjf-req"])
    def test_knobless_policy_rejects_params(self, name):
        with pytest.raises(TypeError):
            create_policy(name, weight=2.0)

    def test_duplicate_registration_rejected(self):
        class Fake(SchedulingPolicy):
            name = "fcfs"

        with pytest.raises(SchedulerError):
            register_policy(Fake)

    def test_unnamed_policy_rejected(self):
        class NoName(SchedulingPolicy):
            pass

        with pytest.raises(SchedulerError):
            register_policy(NoName)

    def test_describe(self):
        assert create_policy("fcfs").describe() == "fcfs"
        assert create_policy("das").describe() == "das"
        text = create_policy("laned", inner="sbf").describe()
        assert text.startswith("laned(")
        assert "inner='sbf'" in text

    def test_default_tagger_is_null(self):
        tagger = create_policy("fcfs").make_tagger()
        assert isinstance(tagger, NullTagger)
        # NullTagger must be a no-op.
        op = make_op()
        tagger.tag_request(op.request, 0.0, None)
        assert op.tag == {}


class TestWorkConservation:
    """Every policy must return exactly the pushed operations."""

    @pytest.mark.parametrize("name", ["fcfs", "sjf-req", "sfq", "sbf", "rein-ml",
                                      "das", "laned"])
    def test_push_n_pop_n(self, name):
        queue = create_policy(name).make_queue()
        ops = [make_op(demand=d, request_id=i) for i, d in
               enumerate([3.0, 1.0, 2.0, 5.0, 4.0])]
        for op in ops:
            queue.push(op, 0.0)
        served = drain(queue, now=1.0)
        assert sorted(id(o) for o in served) == sorted(id(o) for o in ops)
        assert len(queue) == 0
        assert queue.queued_demand == pytest.approx(0.0)
