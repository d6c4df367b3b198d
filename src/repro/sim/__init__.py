"""Discrete-event simulation kernel.

An event + timer + callback kernel: the
:class:`~repro.sim.core.Environment` keeps a virtual clock and a heap of
pending calls.  Most of them process an
:class:`~repro.sim.events.Event`, which runs the callbacks attached to
it; the cluster model's own activities that nothing waits on or cancels
are bare ``(handler, payload)`` calls.  A recurring activity (a client's
arrivals, a server's service loop) is a callback that arms the next
:class:`~repro.sim.events.Timeout`, or the next call, itself.  There are
no coroutines.

The kernel is deliberately dependency-free so the rest of the library (the
key-value cluster model, the schedulers, the experiment harness) can run in
any offline environment.

Example
-------
>>> from repro.sim import Environment
>>> env = Environment()
>>> log = []
>>> def tick(_event):
...     log.append(env.now)
...     if len(log) < 2:
...         env.timeout(3).callbacks.append(tick)
>>> env.timeout(3).callbacks.append(tick)
>>> env.run()
>>> log
[3.0, 6.0]
"""

from repro.sim.core import Environment
from repro.sim.events import Event, StopSimulation, Timeout
from repro.sim.rand import RandomStreams

__all__ = [
    "Environment",
    "Event",
    "RandomStreams",
    "StopSimulation",
    "Timeout",
]
