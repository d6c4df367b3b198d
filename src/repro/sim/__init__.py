"""Discrete-event simulation kernel.

The :class:`~repro.sim.core.Environment` keeps a virtual clock and a heap
of pending calls ``fn(arg)``.  A recurring activity (a client's arrivals,
a server's service loop) is a handler that schedules its own next call;
a timer that may be cancelled is a call whose handler checks a token its
owner forgets on cancelling.  There are no event objects and no
coroutines.

The kernel is deliberately dependency-free so the rest of the library (the
key-value cluster model, the schedulers, the experiment harness) can run in
any offline environment.

Example
-------
>>> from repro.sim import Environment
>>> from repro.sim.core import NORMAL
>>> env = Environment()
>>> log = []
>>> def tick(_):
...     log.append(env.now)
...     if len(log) < 2:
...         env._schedule(tick, None, 3, NORMAL)
>>> env._schedule(tick, None, 3, NORMAL)
>>> env.run()
>>> log
[3.0, 6.0]
"""

from repro.sim.core import Environment, StopSimulation
from repro.sim.rand import RandomStreams

__all__ = [
    "Environment",
    "RandomStreams",
    "StopSimulation",
]
