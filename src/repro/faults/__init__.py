"""Unified fault-plan subsystem shared by the simulator and the runtime.

Mirrors the :mod:`repro.selection` layout: this package holds the
clock-free core — the declarative :class:`FaultPlan` entry types and
the :class:`~repro.faults.plan.LinkFaults` state both halves consult
per message (:mod:`repro.faults.plan`), the shared resilience
primitives (:mod:`repro.faults.resilience`), and chaos reporting
helpers (:mod:`repro.faults.report`) — while the adapters live in
their own modules and are imported explicitly to avoid import cycles
with the subsystems they drive:

* :mod:`repro.faults.sim` — wires a plan into the simulated cluster
  (server crash/recover and pause/resume lifecycle, link-fault windows
  on the network model).
* :mod:`repro.faults.runtime` — replays the same plan against a
  :class:`~repro.runtime.cluster.LocalCluster`: ``crash()``/``restart()``,
  link-fault windows on the cluster's ``LinkFaults``, and the servers'
  slowdown.

See ``docs/faults.md`` for the plan schema and adapter semantics.
"""

from repro.faults.plan import (
    Crash,
    DelaySpike,
    FaultEntry,
    FaultPlan,
    PacketLoss,
    Partition,
    Pause,
    Recover,
    SlowNode,
    event_record,
)
from repro.faults.report import chaos_report, phase_summary
from repro.faults.resilience import (
    CircuitBreaker,
    FailureDetectorConfig,
    HedgePolicy,
    LatencyTracker,
)

__all__ = [
    "CircuitBreaker",
    "Crash",
    "DelaySpike",
    "FailureDetectorConfig",
    "FaultEntry",
    "FaultPlan",
    "HedgePolicy",
    "LatencyTracker",
    "PacketLoss",
    "Partition",
    "Pause",
    "Recover",
    "SlowNode",
    "chaos_report",
    "event_record",
    "phase_summary",
]
