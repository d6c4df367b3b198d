"""Unit tests for the event primitives."""

import pytest


class TestEvent:
    def test_new_event_is_pending(self, env):
        event = env.event()
        assert not event.triggered
        assert not event.processed

    def test_value_before_trigger_raises(self, env):
        with pytest.raises(RuntimeError):
            env.event().value

    def test_ok_before_trigger_raises(self, env):
        with pytest.raises(RuntimeError):
            env.event().ok

    def test_succeed_sets_value(self, env):
        event = env.event()
        event.succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_succeed_default_value_is_none(self, env):
        event = env.event()
        event.succeed()
        assert event.value is None

    def test_double_succeed_raises(self, env):
        event = env.event()
        event.succeed()
        with pytest.raises(RuntimeError):
            event.succeed()

    def test_fail_then_succeed_raises(self, env):
        event = env.event()
        event.fail(ValueError("boom"))
        event.defused = True
        with pytest.raises(RuntimeError):
            event.succeed()

    def test_fail_requires_exception(self, env):
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_fail_stores_exception(self, env):
        event = env.event()
        exc = ValueError("boom")
        event.fail(exc)
        event.defused = True
        assert event.triggered
        assert not event.ok
        assert event.value is exc

    def test_callbacks_run_on_processing(self, env):
        event = env.event()
        seen = []
        event.callbacks.append(lambda e: seen.append(e.value))
        event.succeed("x")
        env.run()
        assert seen == ["x"]
        assert event.processed

    def test_unhandled_failure_propagates_from_run(self, env):
        event = env.event()
        event.fail(ValueError("unhandled"))
        with pytest.raises(ValueError, match="unhandled"):
            env.run()

    def test_repr_states(self, env):
        event = env.event()
        assert "pending" in repr(event)
        event.succeed()
        assert "ok" in repr(event)


class TestTimeout:
    def test_fires_at_delay(self, env):
        times = []
        t = env.timeout(2.5)
        t.callbacks.append(lambda e: times.append(env.now))
        env.run()
        assert times == [2.5]

    def test_carries_value(self, env):
        t = env.timeout(1.0, value="payload")
        env.run()
        assert t.value == "payload"

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1)

    def test_zero_delay_allowed(self, env):
        t = env.timeout(0)
        env.run()
        assert t.processed
        assert env.now == 0.0

    def test_delay_property(self, env):
        assert env.timeout(3.25).delay == 3.25
