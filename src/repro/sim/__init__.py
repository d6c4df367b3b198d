"""Discrete-event simulation kernel.

A small, self-contained process-based discrete-event simulation engine in
the style of SimPy.  Simulation *processes* are Python generator functions
that ``yield`` events; the :class:`~repro.sim.core.Environment` advances
virtual time and resumes processes when the events they wait on fire.

The kernel is deliberately dependency-free so the rest of the library (the
key-value cluster model, the schedulers, the experiment harness) can run in
any offline environment.

Example
-------
>>> from repro.sim import Environment
>>> env = Environment()
>>> log = []
>>> def proc(env):
...     yield env.timeout(3)
...     log.append(env.now)
>>> _ = env.process(proc(env))
>>> env.run()
>>> log
[3.0]
"""

from repro.sim.core import Environment
from repro.sim.events import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    StopSimulation,
    Timeout,
)
from repro.sim.queues import PriorityStore, Resource, Store
from repro.sim.rand import RandomStreams

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "PriorityStore",
    "Process",
    "RandomStreams",
    "Resource",
    "StopSimulation",
    "Store",
    "Timeout",
]
