"""Unit tests for the environment's run loop, its bounds and its stops."""

import pytest

from repro.sim.core import NORMAL, URGENT, Environment, stop
from tests.sim.helpers import tick_every


class TestRun:
    def test_run_without_bound_drains_everything(self, env):
        fired = []
        for delay in (3, 1, 2):
            env._schedule(fired.append, delay, delay, NORMAL)
        env.run()
        assert fired == [1, 2, 3]
        assert env.now == 3.0

    def test_run_until_time_stops_clock_there(self, env):
        env._schedule(id, None, 10, NORMAL)
        env.run(until=4)
        assert env.now == 4.0

    def test_run_until_time_excludes_later_events(self, env):
        fired = []
        env._schedule(lambda _: fired.append(env.now), None, 5, NORMAL)
        env.run(until=5)  # the bound sorts before the entry at t=5
        assert fired == []

    def test_run_until_past_raises(self, env):
        env._schedule(id, None, 1, NORMAL)
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
        env._schedule(fired.append, "end", float("inf"), NORMAL)
        env._schedule(fired.append, "mid", 2.0, NORMAL)
        env.run()
        assert fired == ["mid", "end"]

    def test_stop_entry_ends_the_run_at_its_instant(self, env):
        fired = []
        env._schedule(fired.append, "before", 1.0, NORMAL)
        env._schedule(stop, None, 2.0, NORMAL)
        env._schedule(fired.append, "after", 9.0, NORMAL)
        assert env.run() is None
        assert (env.now, fired) == (2.0, ["before"])
        env.run()  # what the stop left behind is still runnable
        assert (env.now, fired) == (9.0, ["before", "after"])

    def test_run_stopped_early_leaves_no_bound_behind(self, env):
        """A run(until=t) that a stop entry ends before t removes its
        bound: it must not end a later run at t."""
        env._schedule(stop, None, 1.0, NORMAL)
        env.run(until=3.0)
        assert env.now == 1.0
        fired = []
        env._schedule(lambda _: fired.append(env.now), None, 4.0, NORMAL)
        env.run()
        assert fired == [5.0]

    def test_exception_during_run_until_time_leaves_no_stop_behind(self, env):
        def boom(_):
            raise ValueError("boom")

        env._schedule(boom, None, 1.0, NORMAL)
        with pytest.raises(ValueError, match="boom"):
            env.run(until=3.0)
        fired = []
        env._schedule(lambda _: fired.append(env.now), None, 5.0, NORMAL)
        env.run()
        assert fired == [6.0]

    def test_run_on_empty_environment_is_noop(self, env):
        env.run()
        assert env.now == 0.0

    def test_initial_time(self):
        env = Environment(initial_time=100.0)
        assert env.now == 100.0
        env._schedule(id, None, 5, NORMAL)
        env.run()
        assert env.now == 105.0


class TestOrderAndRepr:
    def test_urgent_events_precede_timeouts_at_same_instant(self, env):
        order = []
        env._schedule(order.append, "timeout-done", 1, NORMAL)
        # An URGENT entry at t=0 runs before the NORMAL t=0 entry before it.
        env._schedule(order.append, "timeout-zero", 0, NORMAL)
        env._schedule(order.append, "urgent", 0, URGENT)
        env.run()
        assert order == ["urgent", "timeout-zero", "timeout-done"]

    def test_repr_contains_time(self, env):
        env._schedule(id, None, 1, NORMAL)
        assert "now=0" in repr(env)
