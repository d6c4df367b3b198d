"""Scheduling policies for per-server operation queues.

A policy has two halves mirroring the system's information split:

* a **client tagger** that stamps each operation with whatever priority
  metadata the policy needs (computed from client-local state only), and
* a **server queue** that orders queued operations using those tags plus
  server-local state.

Baselines: FCFS (the default the paper improves on), per-request SJF,
start-time fair queueing, Rein's SBF, and Rein SBF with multilevel
feedback.  The paper's contribution, DAS, lives in :mod:`repro.core` and
registers itself here under ``"das"``; ``"laned"`` wraps any of them in
size lanes.
"""

from repro.schedulers.base import (
    ClientTagger,
    NullTagger,
    SchedulingPolicy,
    ServerQueue,
)
from repro.schedulers.registry import (
    available_schedulers,
    create_policy,
    register_policy,
)

# Import modules for their registration side effects.
from repro.schedulers import fcfs as _fcfs  # noqa: F401
from repro.schedulers import rein as _rein  # noqa: F401
from repro.schedulers import sfq as _sfq  # noqa: F401
from repro.schedulers import sjf as _sjf  # noqa: F401
from repro.core import das as _das  # noqa: F401
from repro.sharding import policy as _laned  # noqa: F401

__all__ = [
    "ClientTagger",
    "NullTagger",
    "SchedulingPolicy",
    "ServerQueue",
    "available_schedulers",
    "create_policy",
    "register_policy",
]
