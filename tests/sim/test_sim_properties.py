"""Property-based tests for the simulation kernel (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.core import NORMAL, Environment
from tests.sim.helpers import tick_every


@given(delays=st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
@settings(max_examples=100, deadline=None)
def test_timeouts_fire_in_sorted_order(delays):
    """Whatever the scheduling order, entries fire in time order."""
    env = Environment()
    fired = []
    for delay in delays:
        env._schedule(fired.append, delay, delay, NORMAL)
    env.run()
    assert fired == sorted(delays)
    assert env.now == max(delays)


@given(
    delays=st.lists(
        st.floats(min_value=0, max_value=100), min_size=2, max_size=20
    )
)
@settings(max_examples=50, deadline=None)
def test_equal_delays_preserve_creation_order(delays):
    """Ties break by creation order, making runs deterministic."""
    env = Environment()
    fired = []
    for index, delay in enumerate(delays):
        env._schedule(fired.append, index, delay, NORMAL)
    env.run()
    expected = [i for _, i in sorted(zip(delays, range(len(delays))))]
    assert fired == expected


@given(
    delays=st.lists(st.floats(min_value=0.001, max_value=10), min_size=1, max_size=10),
    steps=st.integers(1, 10),
)
@settings(max_examples=50, deadline=None)
def test_time_never_goes_backwards(delays, steps):
    """Re-arming timers of mixed periods only ever see the clock advance."""
    env = Environment()
    observed = []
    for delay in delays:
        tick_every(env, delay, steps, lambda: observed.append(env.now))
    env.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays) * steps
