"""Additional simulation-kernel edge cases."""

import pytest

from repro.sim.core import NORMAL, URGENT
from tests.sim.helpers import tick_every


class TestCallbacks:
    def test_rearming_callback_fires_n_times_on_time(self, env):
        fired = []
        tick_every(env, 0.25, 6, lambda: fired.append(env.now))
        env.run()
        assert fired == [0.25, 0.5, 0.75, 1.0, 1.25, 1.5]
        assert not env._queue

    def test_same_instant_urgent_first_then_fifo(self, env):
        order = []

        def at_one(_):
            order.append("timer-1")
            # Scheduled after timer-2 was scheduled for this instant, yet
            # URGENT entries run before it, in the order they were scheduled.
            for name in ("urgent-1", "urgent-2"):
                env._schedule(order.append, name)
            env._schedule(order.append, "timer-3", 0.0, NORMAL)

        env._schedule(at_one, None, 1.0, NORMAL)
        env._schedule(order.append, "timer-2", 1.0, NORMAL)
        env.run()
        assert order == ["timer-1", "urgent-1", "urgent-2", "timer-2", "timer-3"]

    def test_two_rearming_timers_interleave_by_creation(self, env):
        log = []
        tick_every(env, 1, 3, lambda: log.append((env.now, "a")))
        tick_every(env, 1, 3, lambda: log.append((env.now, "b")))
        env.run()
        assert log == [
            (1.0, "a"), (1.0, "b"),
            (2.0, "a"), (2.0, "b"),
            (3.0, "a"), (3.0, "b"),
        ]


class TestBareEntries:
    """``env._schedule(fn, arg, delay, priority)``: a call on the heap,
    ordered by ``(time, priority, seq)``."""

    def test_entries_interleave_by_priority_then_seq(self, env):
        order = []

        def start(_):
            env._schedule(order.append, "normal-1", 1.0, NORMAL)
            env._schedule(order.append, "normal-2", 1.0, NORMAL)
            env._schedule(order.append, "normal-3", 1.0, NORMAL)
            env._schedule(order.append, "urgent-4", 1.0, URGENT)
            env._schedule(at_one, None, 1.0, NORMAL)

        def at_one(_):
            order.append("normal-5")
            # Same instant, scheduled while it is being processed: URGENT
            # ones first, by seq among them.
            env._schedule(order.append, "normal-6", 0.0, NORMAL)
            env._schedule(order.append, "urgent-7")
            env._schedule(order.append, "urgent-8")

        env._schedule(start, None)
        env.run()
        assert order == [
            "urgent-4",
            "normal-1", "normal-2", "normal-3", "normal-5",
            "urgent-7", "urgent-8", "normal-6",
        ]
        assert env.now == 1.0

    def test_argument_is_passed_and_clock_is_at_the_firing_time(self, env):
        seen = []
        env._schedule(lambda arg: seen.append((env.now, arg)), ("op", 3), 2.5, NORMAL)
        env.run()
        assert seen == [(2.5, ("op", 3))]

    @pytest.mark.parametrize("bad", [-1.0, -1e-12, float("nan")])
    def test_nan_and_negative_delays_raise(self, env, bad):
        with pytest.raises(ValueError, match="non-negative"):
            env._schedule(id, None, bad, NORMAL)
        assert not env._queue  # nothing reached the heap
        assert env.events_scheduled == 0

    def test_exception_from_fn_leaves_run_at_firing_time(self, env):
        def boom(_):
            raise ValueError("inside")

        fired = []
        env._schedule(boom, None, 1.5, NORMAL)
        env._schedule(fired.append, "later", 4.0, NORMAL)
        with pytest.raises(ValueError, match="inside"):
            env.run()
        assert env.now == 1.5 and fired == []
        env.run()  # the rest of the schedule is still runnable
        assert env.now == 4.0 and fired == ["later"]

    def test_events_scheduled_counts_every_entry(self, env):
        env._schedule(id, None, 1.0, NORMAL)
        env._schedule(id, None)
        env.run(until=0.5)  # a run's time bound is not a scheduled entry
        assert env.events_scheduled == 2


class TestClockEdgeCases:
    def test_zero_duration_events_preserve_order(self, env):
        order = []
        for i in range(5):
            env._schedule(order.append, i)
        env.run()
        assert order == [0, 1, 2, 3, 4]

    def test_float_time_accumulates_without_drift_blowup(self, env):
        tick_every(env, 0.1, 1000, lambda: None)
        env.run()
        assert env.now == pytest.approx(100.0, abs=1e-6)

    def test_run_until_exact_event_time_boundary(self, env):
        fired = []
        env._schedule(lambda _: fired.append(env.now), None, 5.0, NORMAL)
        env.run(until=5.0)
        # The bound at t=5.0 (URGENT, seq -1) precedes the entry.
        assert fired == []
        env.run()
        assert fired == [5.0]
