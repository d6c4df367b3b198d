"""Asyncio runtime: a real (non-simulated) KV store with DAS scheduling.

The same :mod:`repro.schedulers` queue implementations that drive the
simulator order operations inside real asyncio TCP servers here — the
point being that simulation results carry over to a runnable system.

* :mod:`repro.runtime.protocol` — length-prefixed binary wire protocol
  and the callback frame parser both sides use;
* :mod:`repro.runtime.scheduling` — the scheduled executor wrapping a
  :class:`~repro.schedulers.base.ServerQueue`;
* :mod:`repro.runtime.server` — the TCP key-value server;
* :mod:`repro.runtime.client` — the multiget client with DAS tagging,
  retries/backoff, hedging, and per-server circuit breakers;
* :mod:`repro.runtime.resilience` — the retry policy, its errors and
  the partial-multiget report (hedging and breakers are the shared
  :mod:`repro.faults.resilience` objects);
* :mod:`repro.runtime.cluster` — in-process cluster harness for demos
  and integration tests, with chaos controls (crash/restart, and fault
  plans applied through the :class:`~repro.faults.plan.LinkFaults` the
  simulator's network also consults; see :mod:`repro.faults.runtime`).
"""

from repro.runtime.client import RuntimeClient
from repro.runtime.cluster import LocalCluster
from repro.runtime.loadgen import LoadGenerator, LoadgenResult
from repro.runtime.protocol import Message
from repro.runtime.resilience import (
    CircuitOpenError,
    MultigetReport,
    OperationTimeoutError,
    RetryPolicy,
    ServerUnavailableError,
)
from repro.runtime.scheduling import ExecutorStoppedError, QueuedOp, ScheduledExecutor
from repro.runtime.server import KVServer

__all__ = [
    "CircuitOpenError",
    "ExecutorStoppedError",
    "KVServer",
    "LoadGenerator",
    "LoadgenResult",
    "LocalCluster",
    "Message",
    "MultigetReport",
    "OperationTimeoutError",
    "QueuedOp",
    "RetryPolicy",
    "RuntimeClient",
    "ScheduledExecutor",
    "ServerUnavailableError",
]
