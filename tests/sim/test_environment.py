"""Unit tests for the environment's run/step/peek machinery."""

import pytest

from repro.sim.core import EmptySchedule, Environment
from tests.sim.helpers import tick_every


class TestRun:
    def test_run_without_bound_drains_everything(self, env):
        fired = []
        for delay in (3, 1, 2):
            t = env.timeout(delay)
            t.callbacks.append(lambda e, d=delay: fired.append(d))
        env.run()
        assert fired == [1, 2, 3]
        assert env.now == 3.0

    def test_run_until_time_stops_clock_there(self, env):
        env.timeout(10)
        env.run(until=4)
        assert env.now == 4.0

    def test_run_until_time_excludes_later_events(self, env):
        fired = []
        t = env.timeout(5)
        t.callbacks.append(lambda e: fired.append(env.now))
        env.run(until=5)  # stop event sorts before the timeout at t=5
        assert fired == []

    def test_run_until_past_raises(self, env):
        env.timeout(1)
        env.run(until=2)
        with pytest.raises(ValueError):
            env.run(until=1)

    def test_run_until_negative_raises(self, env):
        with pytest.raises(ValueError, match="negative"):
            env.run(until=-1.0)

    def test_run_until_nan_raises(self, env):
        with pytest.raises(ValueError, match="NaN"):
            env.run(until=float("nan"))

    def test_run_until_time_fires_everything_before_it(self, env):
        log = []
        tick_every(env, 1.0, 100, lambda: log.append(env.now))
        env.run(until=5.0)
        assert env.now == 5.0
        assert log == [1.0, 2.0, 3.0, 4.0]

    def test_inf_time_event_is_served_last(self, env):
        fired = []
        env.timeout(float("inf")).callbacks.append(lambda e: fired.append("end"))
        env.timeout(2.0).callbacks.append(lambda e: fired.append("mid"))
        env.run()
        assert fired == ["mid", "end"]

    def test_run_until_event_returns_its_value(self, env):
        done = env.event()
        env.timeout(2).callbacks.append(lambda e: done.succeed("answer"))
        env.timeout(9)
        assert env.run(until=done) == "answer"
        assert env.now == 2.0

    def test_run_until_already_processed_event(self, env):
        event = env.event()
        event.succeed("early")
        env.run()
        assert env.run(until=event) == "early"

    def test_run_until_event_that_never_fires(self, env):
        stuck = env.event()
        env.timeout(1)
        with pytest.raises(RuntimeError, match="ran out of events"):
            env.run(until=stuck)

    def test_run_until_failed_event_raises(self, env):
        done = env.event()
        env.timeout(1).callbacks.append(lambda e: done.fail(KeyError("whoops")))
        with pytest.raises(KeyError):
            env.run(until=done)
        assert env.now == 1.0
        env.run()  # the failure was consumed by run(until=...)

    def test_failed_run_until_event_does_not_end_a_later_run(self, env):
        """The stop callback is detached when the queue drains first."""
        late = env.event()
        with pytest.raises(RuntimeError, match="ran out of events"):
            env.run(until=late)
        env.timeout(1.0).callbacks.append(lambda e: late.succeed("x"))
        fired = []
        env.timeout(5.0).callbacks.append(lambda e: fired.append(env.now))
        assert env.run() is None
        assert fired == [5.0]

    def test_exception_during_run_until_time_leaves_no_stop_behind(self, env):
        def boom(_event):
            raise ValueError("boom")

        env.timeout(1.0).callbacks.append(boom)
        with pytest.raises(ValueError, match="boom"):
            env.run(until=3.0)
        fired = []
        env.timeout(5.0).callbacks.append(lambda e: fired.append(env.now))
        env.run()
        assert fired == [6.0]

    def test_run_on_empty_environment_is_noop(self, env):
        env.run()
        assert env.now == 0.0

    def test_initial_time(self):
        env = Environment(initial_time=100.0)
        assert env.now == 100.0
        env.timeout(5)
        env.run()
        assert env.now == 105.0


class TestStepAndPeek:
    def test_peek_empty_is_inf(self, env):
        assert env.peek() == float("inf")

    def test_peek_returns_next_event_time(self, env):
        env.timeout(7)
        env.timeout(3)
        assert env.peek() == 3.0

    def test_step_advances_one_event(self, env):
        env.timeout(1)
        env.timeout(2)
        env.step()
        assert env.now == 1.0
        env.step()
        assert env.now == 2.0

    def test_step_on_empty_raises(self, env):
        with pytest.raises(EmptySchedule, match="0 pending events"):
            env.step()

    def test_urgent_events_precede_timeouts_at_same_instant(self, env):
        order = []
        env.timeout(1).callbacks.append(lambda e: order.append("timeout-done"))
        # An event succeeded at t=0 runs before the t=0 timeout below.
        t0 = env.timeout(0)
        t0.callbacks.append(lambda e: order.append("timeout-zero"))
        ev = env.event()
        ev.callbacks.append(lambda e: order.append("urgent"))
        ev.succeed()
        env.run()
        assert order == ["urgent", "timeout-zero", "timeout-done"]

    def test_repr_contains_time(self, env):
        env.timeout(1)
        assert "now=0" in repr(env)
