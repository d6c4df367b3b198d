"""Unified fault-plan subsystem shared by the simulator and the runtime.

Mirrors the :mod:`repro.selection` layout: this package holds the
clock-free core — the declarative :class:`FaultPlan` entry types
(:mod:`repro.faults.plan`), the shared resilience primitives
(:mod:`repro.faults.resilience`), and chaos reporting helpers
(:mod:`repro.faults.report`) — while the adapters live in their own
modules and are imported explicitly to avoid import cycles with the
subsystems they drive:

* :mod:`repro.faults.sim` — wires a plan into the simulated cluster
  (server crash/recover and pause/resume lifecycle, network link
  faults).
* :mod:`repro.faults.runtime` — replays the same plan against a
  :class:`~repro.runtime.cluster.LocalCluster` via the existing
  :class:`~repro.runtime.faults.FaultInjector` policies and
  ``crash()``/``restart()``.

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
