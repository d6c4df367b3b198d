"""Shared helper for the kernel tests: a self-re-arming timer."""

from repro.sim.core import NORMAL, Environment


def tick_every(env: Environment, delay: float, times: int, on_tick) -> None:
    """Call ``on_tick()`` ``times`` times, ``delay`` apart, starting at now + delay.

    Each firing schedules the next call itself — the shape every recurring
    activity of the model has.
    """
    left = times

    def fire(_):
        nonlocal left
        left -= 1
        on_tick()
        if left:
            env._schedule(fire, None, delay, NORMAL)

    if times:
        env._schedule(fire, None, delay, NORMAL)
