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
        assert env.peek() == float("inf")

    def test_same_instant_urgent_first_then_fifo(self, env):
        order = []

        def at_one(_event):
            order.append("timer-1")
            # Triggered after timer-2 was scheduled for this instant, yet
            # URGENT events run before it, in the order they were triggered.
            for name in ("urgent-1", "urgent-2"):
                ev = env.event()
                ev.callbacks.append(lambda e, n=name: order.append(n))
                ev.succeed()
            env.timeout(0.0).callbacks.append(lambda e: order.append("timer-3"))

        env.timeout(1.0).callbacks.append(at_one)
        env.timeout(1.0).callbacks.append(lambda e: order.append("timer-2"))
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

    def test_callbacks_run_in_registration_order(self, env):
        gate = env.event()
        results = []
        for name in ("first", "second"):
            gate.callbacks.append(
                lambda e, n=name: results.append((n, e.value, env.now))
            )
        env.timeout(2).callbacks.append(lambda e: gate.succeed("open"))
        env.run()
        assert results == [("first", "open", 2.0), ("second", "open", 2.0)]

    def test_callback_exception_leaves_run_at_firing_time(self, env):
        def boom(_event):
            raise ValueError("inside")

        env.timeout(1.5).callbacks.append(boom)
        later = env.timeout(4.0)
        with pytest.raises(ValueError, match="inside"):
            env.run()
        assert env.now == 1.5
        assert not later.processed
        env.run()  # the rest of the schedule is still runnable
        assert env.now == 4.0

    def test_defusing_callback_consumes_the_failure(self, env):
        event = env.event()
        handled = []

        def handler(e):
            e.defused = True
            handled.append(str(e.value))

        event.callbacks.append(handler)
        event.fail(RuntimeError("event failed"))
        env.run()
        assert handled == ["event failed"]


class TestBareEntries:
    """``env._schedule(fn, arg, delay, priority)``: a call on the heap with
    no event object, ordered with events by ``(time, priority, seq)``."""

    def test_bare_entries_and_events_interleave_by_priority_then_seq(self, env):
        order = []

        def start(_):
            env._schedule(order.append, "bare-normal-1", 1.0, NORMAL)
            env.timeout(1.0).callbacks.append(lambda e: order.append("timer-2"))
            env._schedule(order.append, "bare-normal-3", 1.0, NORMAL)
            env._schedule(order.append, "bare-urgent-4", 1.0, URGENT)
            env.timeout(1.0).callbacks.append(at_one)

        def at_one(_event):
            order.append("timer-5")
            # Same instant, scheduled while it is being processed: URGENT
            # ones first, an event and a bare entry by seq among them.
            env._schedule(order.append, "bare-normal-6", 0.0, NORMAL)
            gate = env.event()
            gate.callbacks.append(lambda e: order.append("event-7"))
            gate.succeed()
            env._schedule(order.append, "bare-urgent-8")

        env._schedule(start, None)
        env.run()
        assert order == [
            "bare-urgent-4",
            "bare-normal-1", "timer-2", "bare-normal-3", "timer-5",
            "event-7", "bare-urgent-8", "bare-normal-6",
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
        assert env.peek() == float("inf")  # nothing reached the heap
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

    def test_step_fires_one_bare_entry(self, env):
        fired = []
        env._schedule(fired.append, "a", 1.0, NORMAL)
        env._schedule(fired.append, "b", 2.0, NORMAL)
        env.step()
        assert (env.now, fired) == (1.0, ["a"])

    def test_events_scheduled_counts_every_entry(self, env):
        env._schedule(id, None, 1.0, NORMAL)     # a bare entry
        env.timeout(1.0)                         # a timeout
        env.event().succeed()                    # a triggered event
        env.event()                              # pending: not on the heap
        assert env.events_scheduled == 3


class TestClockEdgeCases:
    def test_zero_duration_events_preserve_order(self, env):
        order = []
        for i in range(5):
            ev = env.event()
            ev.callbacks.append(lambda e, i=i: order.append(i))
            ev.succeed()
        env.run()
        assert order == [0, 1, 2, 3, 4]

    def test_float_time_accumulates_without_drift_blowup(self, env):
        tick_every(env, 0.1, 1000, lambda: None)
        env.run()
        assert env.now == pytest.approx(100.0, abs=1e-6)

    def test_run_until_exact_event_time_boundary(self, env):
        fired = []
        t = env.timeout(5.0)
        t.callbacks.append(lambda e: fired.append(env.now))
        env.run(until=5.0)
        # The stop event at t=5.0 (urgent priority) precedes the timeout.
        assert fired == []
        env.run()
        assert fired == [5.0]
