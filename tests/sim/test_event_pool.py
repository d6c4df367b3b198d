"""Free-list pooling of Timeout events and callback lists.

``Environment.pooled_timeout`` recycles fired timeouts through a free
list; these tests pin the semantics that make that safe: pooled timeouts
behave exactly like plain ones up to the firing, recycled objects are
reinitialized completely, and the plain ``timeout`` factory never
recycles.
"""

from __future__ import annotations

import pytest

from repro.sim.core import Environment
from repro.sim.events import Timeout
from tests.sim.helpers import tick_every


class TestPooledTimeout:
    def test_fires_at_the_right_time_with_value(self):
        env = Environment()
        seen = []
        env.pooled_timeout(2.5, value="payload").callbacks.append(
            lambda e: seen.append((env.now, e.value))
        )
        env.run()
        assert seen == [(2.5, "payload")]

    @pytest.mark.parametrize("bad", [-1.0, float("nan")])
    def test_negative_delay_rejected_on_both_paths(self, bad):
        # NaN too: a NaN key would silently break the heap invariant.
        env = Environment()
        with pytest.raises(ValueError):
            env.pooled_timeout(bad)  # miss path (empty pool): Timeout.__init__
        env.run()
        env.pooled_timeout(0.0)
        env.run()
        with pytest.raises(ValueError):
            env.pooled_timeout(bad)  # hit path (non-empty pool)

    def test_fired_timeout_is_reused(self):
        env = Environment()
        first = env.pooled_timeout(1.0)
        env.run()
        second = env.pooled_timeout(1.0)
        assert second is first
        # Fully reinitialized: scheduled-but-unprocessed, like a fresh one.
        assert not second.processed
        assert second.ok
        assert second.delay == 1.0
        env.run()
        assert env.timeout_pool_hits == 1
        assert env.timeout_pool_misses == 1

    def test_reused_timeout_drops_old_value(self):
        env = Environment()
        env.pooled_timeout(1.0, value="stale-payload")
        env.run()
        reused = env.pooled_timeout(1.0)
        assert reused.triggered  # Timeout pre-sets its value
        assert reused.value is None

    def test_plain_timeout_never_pooled(self):
        env = Environment()
        t = env.timeout(1.0)
        env.run()
        t2 = env.timeout(1.0)
        assert t2 is not t
        assert env.timeout_pool_hits == 0
        assert env.timeout_pool_misses == 0

    def test_pool_stats_shape(self):
        env = Environment()
        stats = env.pool_stats()
        assert stats == {
            "timeout_pool_hits": 0,
            "timeout_pool_misses": 0,
            "timeout_pool_hit_rate": 0.0,
        }
        for _ in range(4):
            env.pooled_timeout(1.0)
            env.run()
        stats = env.pool_stats()
        assert stats["timeout_pool_hits"] == 3
        assert stats["timeout_pool_misses"] == 1
        assert stats["timeout_pool_hit_rate"] == 0.75

    def test_hit_rate_is_high_in_steady_state(self):
        env = Environment()
        tick_every(env, 0.01, 500, lambda: None, factory="pooled_timeout")
        env.run()
        assert env.pool_stats()["timeout_pool_hit_rate"] > 0.99

    def test_determinism_identical_to_unpooled(self):
        """Re-arming pooled timers produce the same trace as plain ones."""

        def simulate(factory):
            env = Environment()
            trace = []
            for delay in (0.3, 0.7):
                tick_every(
                    env, delay, 50,
                    lambda d=delay: trace.append((env.now, d)),
                    factory=factory,
                )
            env.run()
            return trace

        assert simulate("pooled_timeout") == simulate("timeout")

    def test_step_path_recycles_too(self):
        env = Environment()
        t = env.pooled_timeout(1.0)
        while True:
            try:
                env.step()
            except Exception:
                break
        assert env.pooled_timeout(5.0) is t


class TestCallbackListPool:
    def test_callback_lists_are_recycled_empty(self):
        env = Environment()
        env.pooled_timeout(1.0).callbacks.append(lambda e: None)
        env.run()
        ev = env.event()
        assert ev.callbacks == []  # recycled list arrives cleared

    def test_distinct_live_events_never_share_lists(self):
        env = Environment()
        events = [env.event() for _ in range(20)]
        lists = {id(e.callbacks) for e in events}
        assert len(lists) == len(events)


class TestTimeoutDefaults:
    def test_direct_timeout_construction_not_recyclable(self):
        env = Environment()
        t = Timeout(env, 1.0)
        env.run()
        assert env.pool_stats()["timeout_pool_hits"] == 0
        assert not t._recyclable
