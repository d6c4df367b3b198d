"""Unit tests for request traces, op spans, and the sampling tracer."""

import json

import pytest

from repro.errors import ConfigError
from repro.obs import OpSpan, RequestTrace, Tracer


class FakeOp:
    def __init__(self, **kwargs):
        self.key = kwargs.pop("key", "k")
        self.server_id = kwargs.pop("server_id", 3)
        self.enqueue_time = kwargs.pop("enqueue_time", 1.0)
        self.start_time = kwargs.pop("start_time", 2.0)
        self.finish_time = kwargs.pop("finish_time", 3.0)
        self.tag = kwargs.pop("tag", {})


class TestOpSpan:
    def test_from_op_reads_timestamps(self):
        span = OpSpan.from_op(FakeOp(tag={"rpt": 0.5}))
        assert span.key == "k"
        assert span.server_id == 3
        assert (span.enqueue, span.service_start, span.service_end) == (1.0, 2.0, 3.0)
        # Scheduler tags are the client's priority payload, not span fields.
        assert set(vars(span)) == {
            "key", "server_id", "enqueue", "service_start", "service_end"
        }

    def test_explicit_server_id_wins(self):
        assert OpSpan.from_op(FakeOp(), server_id=9).server_id == 9

    def test_monotone(self):
        assert OpSpan.from_op(FakeOp()).monotone()
        assert not OpSpan.from_op(FakeOp(start_time=0.5)).monotone()
        # A NaN timestamp (op never served) must fail, not pass vacuously.
        assert not OpSpan.from_op(FakeOp(finish_time=float("nan"))).monotone()


class TestRequestTrace:
    def trace(self, **kwargs):
        return RequestTrace(
            request_id=7,
            tag_time=kwargs.pop("tag_time", 0.5),
            reply_time=kwargs.pop("reply_time", 4.0),
            ops=[OpSpan.from_op(FakeOp(**kwargs))],
        )

    def test_monotone_accepts_ordered_chain(self):
        assert self.trace().monotone()

    def test_tag_after_enqueue_rejected(self):
        assert not self.trace(tag_time=1.5).monotone()

    def test_reply_before_service_end_rejected(self):
        assert not self.trace(reply_time=2.5).monotone()

    def test_as_dict_round_trips_json(self):
        data = json.loads(json.dumps(self.trace().as_dict()))
        assert data["request_id"] == 7
        assert data["ops"][0]["enqueue"] == 1.0


class TestTracer:
    def test_rate_one_samples_everything(self):
        tracer = Tracer(sample_rate=1.0)
        assert all(tracer.should_sample() for _ in range(10))

    def test_rate_zero_disables(self):
        tracer = Tracer(sample_rate=0.0)
        assert not tracer.enabled
        assert not any(tracer.should_sample() for _ in range(10))

    def test_stride_sampling_is_deterministic(self):
        tracer = Tracer(sample_rate=0.25)
        picks = [tracer.should_sample() for _ in range(8)]
        # First request always sampled, then every 4th.
        assert picks == [True, False, False, False, True, False, False, False]

    def test_capacity_is_a_ring(self):
        tracer = Tracer(sample_rate=1.0, capacity=2)
        for i in range(3):
            tracer.record(RequestTrace(request_id=i, tag_time=0.0))
        assert [t.request_id for t in tracer.traces] == [1, 2]
        assert tracer.sampled == 3
        assert tracer.dropped == 1

    def test_to_json(self):
        tracer = Tracer(sample_rate=1.0)
        tracer.record(RequestTrace(request_id=1, tag_time=0.0))
        assert json.loads(tracer.to_json())[0]["request_id"] == 1

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigError):
            Tracer(sample_rate=1.5)
        with pytest.raises(ConfigError):
            Tracer(capacity=0)
