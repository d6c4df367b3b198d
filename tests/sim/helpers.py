"""Shared helper for the kernel tests: a self-re-arming timer."""

from repro.sim.core import Environment


def tick_every(
    env: Environment, delay: float, times: int, on_tick, factory: str = "timeout"
) -> None:
    """Call ``on_tick()`` ``times`` times, ``delay`` apart, starting at now + delay.

    Each firing arms the next timer itself — the shape every recurring
    activity of the model has.  ``factory`` names the environment method
    that makes the timer (``timeout`` or ``pooled_timeout``).
    """
    make_timer = getattr(env, factory)
    left = times

    def fire(_event):
        nonlocal left
        left -= 1
        on_tick()
        if left:
            make_timer(delay).callbacks.append(fire)

    if times:
        make_timer(delay).callbacks.append(fire)
