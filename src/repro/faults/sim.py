"""Simulator adapter: wire a :class:`FaultPlan` into a live cluster.

Two cooperating pieces:

* :class:`LinkFaults` — the active network fault state.  The cluster
  installs one on its :class:`~repro.kvstore.network.NetworkModel`; the
  model consults it per message (partition drops, seeded packet loss,
  additive delay spikes).  When no windows are active the check is one
  attribute read, so healthy runs pay nothing measurable.
* :class:`SimFaultDriver` — a re-arming timer that walks the plan's
  scheduled events in time order and applies each one: ``Crash`` /
  ``Recover`` call the sim server's crash/recover lifecycle (queue
  drained to failure), ``Pause`` windows its pause/resume (queue
  parked), windowed link entries toggle :class:`LinkFaults`, and
  ``SlowNode`` entries are recorded for observability (their speed
  steps are folded into the server's ``ServiceModel`` at cluster build
  time, where the step-function lookup applies them exactly).  An event
  kind without a handler here raises, so a plan entry type cannot exist
  without simulator semantics.

The driver appends the canonical
:func:`~repro.faults.plan.event_record` dict for every applied event to
``timeline`` — the same dicts the runtime adapter records — which is
what the sim/runtime parity test compares.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.faults.plan import (
    DelaySpike,
    FaultPlan,
    PacketLoss,
    Partition,
    event_record,
)
from repro.sim.core import NORMAL

if TYPE_CHECKING:  # pragma: no cover
    from repro.kvstore.network import NetworkModel
    from repro.kvstore.server import Server
    from repro.obs import MetricsRegistry

#: Sentinel extra-delay meaning "drop the message".
DROP = float("inf")


class LinkFaults:
    """Currently-active link-level faults, consulted per message.

    ``verdict(src, dst)`` returns the extra delay to add to the message
    (0.0 when unaffected) or :data:`DROP` when the message must vanish.
    Endpoints are the network model's ``("client", id)`` / ``("server",
    id)`` tuples.
    """

    def __init__(self):
        #: (clients frozenset | None, servers frozenset) active cuts.
        self._partitions: List[Tuple[Optional[frozenset], frozenset, Partition]] = []
        #: (servers frozenset | None, probability, rng) active loss windows.
        self._loss: List[Tuple[Optional[frozenset], float, Any, PacketLoss]] = []
        #: (servers frozenset | None, extra) active delay windows.
        self._delay: List[Tuple[Optional[frozenset], float, DelaySpike]] = []
        self.dropped_partition = 0
        self.dropped_loss = 0
        self.delayed_messages = 0

    @property
    def active(self) -> bool:
        return bool(self._partitions or self._loss or self._delay)

    # -- window toggling (driver-only) ---------------------------------
    def start_partition(self, entry: Partition) -> None:
        clients = frozenset(entry.clients) if entry.clients is not None else None
        self._partitions.append((clients, frozenset(entry.servers), entry))

    def end_partition(self, entry: Partition) -> None:
        self._partitions = [p for p in self._partitions if p[2] is not entry]

    def start_loss(self, entry: PacketLoss, rng: np.random.Generator) -> None:
        servers = frozenset(entry.servers) if entry.servers is not None else None
        self._loss.append((servers, entry.probability, rng, entry))

    def end_loss(self, entry: PacketLoss) -> None:
        self._loss = [l for l in self._loss if l[3] is not entry]

    def start_delay(self, entry: DelaySpike) -> None:
        servers = frozenset(entry.servers) if entry.servers is not None else None
        self._delay.append((servers, entry.extra, entry))

    def end_delay(self, entry: DelaySpike) -> None:
        self._delay = [d for d in self._delay if d[2] is not entry]

    # -- the per-message check -----------------------------------------
    @staticmethod
    def _endpoints(src: Hashable, dst: Hashable) -> Tuple[Optional[int], Optional[int]]:
        """Extract (client_id, server_id) from a link's endpoints."""
        client_id = server_id = None
        for end in (src, dst):
            if isinstance(end, tuple) and len(end) == 2:
                role, ident = end
                if role == "client":
                    client_id = ident
                elif role == "server":
                    server_id = ident
        return client_id, server_id

    def verdict(self, src: Hashable, dst: Hashable) -> float:
        """Extra delay for this message, or :data:`DROP`."""
        client_id, server_id = self._endpoints(src, dst)
        for clients, servers, _ in self._partitions:
            if server_id in servers and (clients is None or client_id in clients):
                self.dropped_partition += 1
                return DROP
        for servers, probability, rng, _ in self._loss:
            if servers is None or server_id in servers:
                if rng.random() < probability:
                    self.dropped_loss += 1
                    return DROP
        extra = 0.0
        for servers, add, _ in self._delay:
            if servers is None or server_id in servers:
                extra += add
        if extra > 0.0:
            self.delayed_messages += 1
        return extra

    def counters(self) -> Dict[str, int]:
        return {
            "dropped_partition": self.dropped_partition,
            "dropped_loss": self.dropped_loss,
            "delayed_messages": self.delayed_messages,
        }


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
        self._loss_rngs: Dict[int, np.random.Generator] = {
            id(entry): np.random.default_rng(entry.seed)
            for entry in plan.entries
            if isinstance(entry, PacketLoss)
        }
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
        elif kind == "partition_start":
            self.link.start_partition(entry)
        elif kind == "partition_end":
            self.link.end_partition(entry)
        elif kind == "packet_loss_start":
            self.link.start_loss(entry, self._loss_rngs[id(entry)])
        elif kind == "packet_loss_end":
            self.link.end_loss(entry)
        elif kind == "delay_spike_start":
            self.link.start_delay(entry)
        elif kind == "delay_spike_end":
            self.link.end_delay(entry)
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
