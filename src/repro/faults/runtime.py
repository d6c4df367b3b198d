"""Runtime adapter: translate a :class:`FaultPlan` into live chaos.

The same declarative plan the simulator wires into its servers and
network model is replayed here against a
:class:`~repro.runtime.cluster.LocalCluster` using the runtime's
existing fault machinery:

* ``Crash`` -> ``cluster.crash(sid)`` (listener closed, sockets severed,
  executor halted without draining — queued work dies with the process);
  ``Recover`` -> ``cluster.restart(sid)``.
* ``Partition`` -> an :class:`~repro.runtime.faults.Outage` covering the
  window on each partitioned server: connections refused and messages
  swallowed, which is what an unreachable server looks like from a
  client.  (The runtime has a single client group, so a client-scoped
  partition degrades to a full cut; the sim models the client axis.)
* ``Pause`` -> the same :class:`~repro.runtime.faults.Outage` on that
  server.  Not the simulator's semantics: a paused simulated server
  parks what arrives and serves it on resume, while the runtime server
  swallows it (never served, no reply) and keeps answering what it had
  queued before the window.
* ``PacketLoss`` -> :class:`~repro.runtime.faults.DropReplies` in
  probability mode (same seed), installed at ``at`` and removed at
  ``until``.
* ``DelaySpike`` -> :class:`~repro.runtime.faults.DelayReplies` for the
  window.
* ``SlowNode`` -> approximated as ``DelayReplies`` with a per-message
  delay of ``(1/factor - 1) * (per_op_overhead + value_bytes / byte_rate)``
  — the full demand term, so large values are slowed proportionally,
  matching the sim's service-speed semantics.  The executor's service
  rate cannot be changed live, so the slowdown is modelled at the reply
  boundary instead of inside service.  Documented in ``docs/faults.md``.

The driver appends the canonical
:func:`~repro.faults.plan.event_record` dict — with *planned* times, so
wall-clock jitter cannot perturb it — for every applied event, giving
byte-identical timelines to the sim adapter for the parity test.  An
event kind without a handler here raises.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Tuple

from repro.faults.plan import FaultPlan, SlowNode, event_record
from repro.runtime.faults import DelayReplies, DropReplies, FaultPolicy, Outage

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.cluster import LocalCluster

#: Fallback per-op overhead for the SlowNode approximation when a server
#: does not expose its executor's configured value.
_DEFAULT_PER_OP_OVERHEAD = 50e-6


class RuntimeFaultDriver:
    """Replays a fault plan against a running :class:`LocalCluster`.

    ``time_scale`` maps plan seconds to wall seconds (default 1.0);
    shrink it to replay a long simulated plan quickly in an integration
    test.  Timeline records always carry the plan's own times.
    """

    def __init__(
        self,
        cluster: "LocalCluster",
        plan: FaultPlan,
        time_scale: float = 1.0,
    ):
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        self.cluster = cluster
        self.plan = plan
        self.time_scale = time_scale
        #: Canonical applied-event dicts, appended as each event fires.
        self.timeline: List[Dict[str, Any]] = []
        #: (entry id, server) -> installed windowed policy, for removal.
        self._installed: Dict[Tuple[int, int], FaultPolicy] = {}
        self._task: asyncio.Task | None = None

    # ------------------------------------------------------------------
    def start(self) -> "RuntimeFaultDriver":
        """Begin replaying the plan as a background task."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self.run())
        return self

    async def wait(self) -> None:
        """Block until every plan event has been applied."""
        if self._task is not None:
            await self._task
        else:
            await self.run()

    async def run(self) -> None:
        """Apply every scheduled event at its (scaled) time."""
        loop = asyncio.get_running_loop()
        start = loop.time()
        for when, _, kind, entry in self.plan.scheduled_events():
            delay = start + when * self.time_scale - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            await self._apply(when, kind, entry)

    # ------------------------------------------------------------------
    def _slow_delay(self, entry: SlowNode) -> Tuple[float, float]:
        """(fixed, per-byte) reply delay approximating the slowdown.

        A factor-``f`` server takes ``demand / f`` instead of ``demand``;
        the reply-boundary approximation adds the missing
        ``(1/f - 1) * demand`` with demand split into its fixed
        (``per_op_overhead``) and size-dependent (``bytes / byte_rate``)
        terms.
        """
        server = self.cluster.servers[entry.server_id]
        overhead = getattr(server, "per_op_overhead", None)
        if overhead is None:
            overhead = _DEFAULT_PER_OP_OVERHEAD
        byte_rate = getattr(server, "byte_rate", None)
        slow = 1.0 / entry.factor - 1.0
        per_op = slow * max(overhead, 1e-6)
        per_byte = slow / byte_rate if byte_rate else 0.0
        return per_op, per_byte

    async def _apply(self, when: float, kind: str, entry) -> None:
        cluster = self.cluster
        if kind == "crash":
            await cluster.crash(entry.server_id)
        elif kind == "recover":
            await cluster.restart(entry.server_id)
        elif kind in ("partition_start", "pause_start"):
            window = (entry.until - entry.at) * self.time_scale
            self._install(entry, lambda: Outage(0.0, window))
        elif kind == "packet_loss_start":
            self._install(
                entry,
                lambda: DropReplies(probability=entry.probability, seed=entry.seed),
            )
        elif kind == "delay_spike_start":
            self._install(entry, lambda: DelayReplies(delay=entry.extra))
        elif kind == "slow_node_start":
            per_op, per_byte = self._slow_delay(entry)
            self._install(
                entry, lambda: DelayReplies(delay=per_op, delay_per_byte=per_byte)
            )
        elif kind.endswith("_end"):
            self._remove(entry)
        else:
            raise ValueError(f"no runtime handler for fault event {kind!r}")
        self.timeline.append(event_record(when, kind, entry))

    def _install(self, entry, make_policy: Callable[[], FaultPolicy]) -> None:
        """Install a fresh policy on every server a windowed entry covers."""
        server_id = getattr(entry, "server_id", None)
        if server_id is not None:
            sids = [server_id]
        elif entry.servers is not None:
            sids = list(entry.servers)
        else:
            sids = list(range(len(self.cluster.servers)))
        for sid in sids:
            policy = make_policy()
            self._installed[(id(entry), sid)] = policy
            self.cluster.servers[sid].faults.add(policy)

    def _remove(self, entry) -> None:
        for (entry_id, sid), policy in list(self._installed.items()):
            if entry_id == id(entry):
                self.cluster.servers[sid].faults.remove(policy)
                del self._installed[(entry_id, sid)]

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Applied timeline snapshot, mirroring the sim driver's block."""
        return {"applied": list(self.timeline)}
