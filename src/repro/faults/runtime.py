"""Runtime adapter: replay a :class:`FaultPlan` against a live cluster.

The same declarative plan the simulator wires into its servers and
network model is replayed here, in wall time, against a
:class:`~repro.runtime.cluster.LocalCluster`:

* ``Crash`` -> ``cluster.crash(sid)`` (listener closed, sockets severed,
  executor halted without draining — queued work dies with the process);
  ``Recover`` -> ``cluster.restart(sid)``.
* ``PacketLoss`` / ``DelaySpike`` -> ``cluster.faults.start(entry)`` /
  ``end(entry)``: the cluster's :class:`~repro.faults.plan.LinkFaults`,
  the same object type the simulator's network consults, which every
  server asks once per message.  A drop swallows the message, an extra
  delay holds its reply back.
* ``Partition`` -> the same, as a cut: a cut server refuses new
  connections and swallows every message.  The runtime's clients are
  one client group, client 0 of the plan, so a partition cuts them all.
* ``Pause`` -> a cut of that server for the window.  Not the simulator's
  semantics: a paused simulated server parks what arrives and serves it
  on resume, while the runtime server swallows it (never served, no
  reply) and keeps answering what it had queued before the window.
* ``SlowNode`` -> sets the server's ``slowdown`` to ``1/factor - 1`` for
  the window; the server holds each reply back by that share of its
  demand, ``per_op_overhead + value_bytes / byte_rate``, because the
  executor's service rate cannot change live.

The driver appends the canonical
:func:`~repro.faults.plan.event_record` dict — with *planned* times, so
wall-clock jitter cannot perturb it — for every applied event, giving
byte-identical timelines to the sim adapter for the parity test.  An
event kind without a handler here raises.
"""

from __future__ import annotations

import asyncio
import contextlib
from typing import TYPE_CHECKING, Any, Dict, List

from repro.faults.plan import FaultPlan, Partition, Pause, event_record

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.cluster import LocalCluster


class RuntimeFaultDriver:
    """Replays a fault plan against a running :class:`LocalCluster`.

    The replay starts as a background task (:attr:`task`) on
    construction.  ``time_scale`` maps plan seconds to wall seconds
    (default 1.0); shrink it to replay a long simulated plan quickly in
    an integration test.  Timeline records always carry the plan's own
    times.
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
        #: The cut standing in for each open ``Pause`` window.
        self._pause_cuts: Dict[Pause, Partition] = {}
        self.task = asyncio.get_running_loop().create_task(self._run())

    async def wait(self) -> None:
        """Block until every plan event has been applied."""
        await self.task

    async def stop(self) -> None:
        """Apply no further event."""
        self.task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await self.task

    async def _run(self) -> None:
        """Apply every scheduled event at its (scaled) time."""
        loop = asyncio.get_running_loop()
        start = loop.time()
        for when, _, kind, entry in self.plan.scheduled_events():
            delay = start + when * self.time_scale - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            await self._apply(when, kind, entry)

    async def _apply(self, when: float, kind: str, entry) -> None:
        cluster = self.cluster
        faults = cluster.faults
        if kind == "crash":
            await cluster.crash(entry.server_id)
        elif kind == "recover":
            await cluster.restart(entry.server_id)
        elif kind == "pause_start":
            cut = Partition(entry.at, entry.until, servers=(entry.server_id,))
            self._pause_cuts[entry] = cut
            faults.start(cut)
        elif kind == "pause_end":
            faults.end(self._pause_cuts.pop(entry))
        elif kind in ("partition_start", "packet_loss_start", "delay_spike_start"):
            faults.start(entry)
        elif kind in ("partition_end", "packet_loss_end", "delay_spike_end"):
            faults.end(entry)
        elif kind == "slow_node_start":
            cluster.servers[entry.server_id].slowdown = 1.0 / entry.factor - 1.0
        elif kind == "slow_node_end":
            cluster.servers[entry.server_id].slowdown = 0.0
        else:
            raise ValueError(f"no runtime handler for fault event {kind!r}")
        self.timeline.append(event_record(when, kind, entry))

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Applied timeline snapshot, mirroring the sim driver's block."""
        return {"applied": list(self.timeline)}
