"""Simulator adapter: wire a :class:`FaultPlan` into a live cluster.

:class:`SimFaultDriver` is a re-arming timer that walks the plan's
scheduled events in time order and applies each one: ``Crash`` /
``Recover`` call the sim server's crash/recover lifecycle (queue drained
to failure), ``Pause`` windows its pause/resume (queue parked), and the
link entries open and close windows on the
:class:`~repro.faults.plan.LinkFaults` it installs on the cluster's
:class:`~repro.kvstore.network.NetworkModel`, which consults it per
message; when no window is open that check is one attribute read, so
healthy runs pay nothing measurable.  ``SlowNode`` entries are recorded
for observability (their speed steps are folded into the server's
``ServiceModel`` at cluster build time, where the step-function lookup
applies them exactly).  An event kind without a handler here raises,
so a plan entry type cannot exist without simulator semantics.

The driver appends the canonical
:func:`~repro.faults.plan.event_record` dict for every applied event to
``timeline`` — the same dicts the runtime adapter records — which is
what the sim/runtime parity test compares.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.faults.plan import FaultPlan, LinkFaults, event_record
from repro.sim.core import NORMAL

if TYPE_CHECKING:  # pragma: no cover
    from repro.kvstore.network import NetworkModel
    from repro.kvstore.server import Server
    from repro.obs import MetricsRegistry


class SimFaultDriver:
    """Applies a plan's events to a simulated cluster at their times."""

    def __init__(
        self,
        env,
        plan: FaultPlan,
        servers: Dict[int, "Server"],
        network: "NetworkModel",
        registry: Optional["MetricsRegistry"] = None,
    ):
        self.env = env
        self.plan = plan
        self.servers = servers
        self.network = network
        self.link = LinkFaults()
        network.faults = self.link
        #: Canonical applied-event dicts, appended as each event fires.
        self.timeline: List[Dict[str, Any]] = []
        #: kind -> live count, for trace tagging and the activity gauge.
        self._active: Dict[str, int] = {}
        self._schedule = plan.scheduled_events()
        self._cursor = 0
        self._counters: Dict[str, Any] = {}
        self._registry = registry
        if registry is not None:
            registry.gauge(
                "fault_active_windows",
                "Fault-plan windows (and crashes) currently in effect",
                fn=lambda: float(sum(self._active.values())),
            )
            registry.gauge(
                "fault_servers_crashed",
                "Servers currently crashed by the fault plan",
                fn=lambda: float(
                    sum(1 for s in self.servers.values() if s.crashed)
                ),
            )
        if self._schedule:
            env._schedule(self._run, None)

    # ------------------------------------------------------------------
    def active_kinds(self) -> Tuple[str, ...]:
        """Sorted base kinds ('crash', 'partition', ...) currently active."""
        return tuple(sorted(k for k, n in self._active.items() if n > 0))

    def _count(self, kind: str) -> None:
        if self._registry is not None:
            counter = self._counters.get(kind)
            if counter is None:
                counter = self._registry.counter(
                    "fault_events_total",
                    "Fault-plan events applied, by kind",
                    kind=kind,
                )
                self._counters[kind] = counter
            counter.inc()

    def _run(self, _) -> None:
        """Apply every entry that is due, then sleep until the next one."""
        env = self.env
        schedule = self._schedule
        while self._cursor < len(schedule):
            when, _, kind, entry = schedule[self._cursor]
            delay = when - env.now
            if delay > 0:
                env._schedule(self._run, None, delay, NORMAL)
                return
            self._cursor += 1
            self._apply(when, kind, entry)

    def _apply(self, when: float, kind: str, entry) -> None:
        if kind == "crash":
            self.servers[entry.server_id].crash()
            self._active["crash"] = self._active.get("crash", 0) + 1
        elif kind == "recover":
            self.servers[entry.server_id].recover()
            self._active["crash"] = self._active.get("crash", 0) - 1
        elif kind == "pause_start":
            self.servers[entry.server_id].pause()
        elif kind == "pause_end":
            self.servers[entry.server_id].resume()
        elif kind in ("partition_start", "packet_loss_start", "delay_spike_start"):
            self.link.start(entry)
        elif kind in ("partition_end", "packet_loss_end", "delay_spike_end"):
            self.link.end(entry)
        elif kind in ("slow_node_start", "slow_node_end"):
            pass  # speed steps are in the server's ServiceModel since build
        else:
            raise ValueError(f"no simulator handler for fault event {kind!r}")
        if kind.endswith("_start"):
            base = kind[: -len("_start")]
            self._active[base] = self._active.get(base, 0) + 1
        elif kind.endswith("_end"):
            base = kind[: -len("_end")]
            self._active[base] = self._active.get(base, 0) - 1
        self._count(kind)
        self.timeline.append(event_record(when, kind, entry))

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Applied timeline plus live fault state, for run snapshots."""
        return {
            "applied": list(self.timeline),
            "active": list(self.active_kinds()),
            "network": self.link.counters(),
        }
