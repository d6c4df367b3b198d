"""Declarative fault plans shared by the simulator and the runtime.

A :class:`FaultPlan` is an ordered set of timed fault entries — crashes,
recoveries, pauses, partitions, lossy or slow links, degraded nodes —
with no clock of its own: times are plain floats relative to run start,
and the adapters (:mod:`repro.faults.sim` for the simulated cluster,
:mod:`repro.faults.runtime` for the asyncio cluster) decide what a
second means.  One plan therefore drives both halves of the system, and
both report the *same* applied timeline, which the parity tests compare
entry for entry.

Entry semantics:

* :class:`Crash` / :class:`Recover` — hard process death and rebirth.
  Unlike a :class:`Pause` (which parks queued work), a crash *drops* the
  server's queued and in-flight operations; clients only learn through
  timeouts.
* :class:`Pause` — the server's service loop stalls for the window:
  queued and arriving operations wait, the one in service completes,
  nothing is dropped.  One server's windows may neither overlap nor
  touch.  The runtime approximates it with a cut of the server, which
  swallows what arrives instead of parking it.
* :class:`Partition` — a client-group <-> server-group reachability cut:
  messages in either direction between the named groups vanish for the
  window.
* :class:`PacketLoss` — probabilistic message drops on links touching
  the named servers (seeded, so deterministic).
* :class:`DelaySpike` — additive delay on links touching the named
  servers.
* :class:`SlowNode` — the server's service speed is multiplied down to
  ``factor`` for the window (the simulator folds this into its
  time-varying :class:`~repro.kvstore.service.ServiceModel`; the runtime
  approximates it with delayed replies).  A slowdown meant to last ends
  its window where the (duration-stopped) run ends.

Every entry type is a frozen dataclass, so a plan embeds in the frozen
``ClusterConfig`` and contributes a deterministic ``repr`` to the
parallel engine's checkpoint fingerprints.

:class:`LinkFaults` is the live state of the link entries
(``Partition``, ``PacketLoss``, ``DelaySpike``) whose windows are open.
Both halves consult one per message: the simulator's network model as
it sends, the runtime server as it receives.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Hashable, List, Optional, Tuple, Union

import numpy as np

from repro.errors import ConfigError


@dataclass(frozen=True)
class Crash:
    """Hard-kill ``server_id`` at ``at``; queued ops are dropped."""

    server_id: int
    at: float

    def __post_init__(self):
        _check_time(self.at, "Crash.at")
        _check_server(self.server_id)


@dataclass(frozen=True)
class Recover:
    """Bring a crashed ``server_id`` back at ``at`` (empty queue)."""

    server_id: int
    at: float

    def __post_init__(self):
        _check_time(self.at, "Recover.at")
        _check_server(self.server_id)


@dataclass(frozen=True)
class Pause:
    """Stall ``server_id``'s service loop for ``[at, until)``; nothing is lost."""

    server_id: int
    at: float
    until: float

    def __post_init__(self):
        _check_window(self.at, self.until, "Pause")
        _check_server(self.server_id)


@dataclass(frozen=True)
class Partition:
    """Cut reachability between ``clients`` and ``servers`` for a window.

    ``clients=None`` means every client.  Messages crossing the cut in
    either direction are dropped for ``[at, until)``.
    """

    at: float
    until: float
    servers: Tuple[int, ...]
    clients: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        _check_window(self.at, self.until, "Partition")
        object.__setattr__(self, "servers", tuple(self.servers))
        if not self.servers:
            raise ConfigError("Partition needs at least one server")
        for sid in self.servers:
            _check_server(sid)
        if self.clients is not None:
            object.__setattr__(self, "clients", tuple(self.clients))
            for cid in self.clients:
                if cid < 0:
                    raise ConfigError(f"invalid client id {cid}")


@dataclass(frozen=True)
class PacketLoss:
    """Drop messages touching ``servers`` with ``probability`` for a window.

    ``servers=None`` afflicts every link.  Draws come from a dedicated
    generator seeded by ``seed``, so loss patterns are reproducible.
    """

    at: float
    until: float
    probability: float
    servers: Optional[Tuple[int, ...]] = None
    seed: int = 0

    def __post_init__(self):
        _check_window(self.at, self.until, "PacketLoss")
        if not 0.0 < self.probability <= 1.0:
            raise ConfigError(
                f"PacketLoss probability must be in (0, 1], got {self.probability}"
            )
        if self.servers is not None:
            object.__setattr__(self, "servers", tuple(self.servers))
            for sid in self.servers:
                _check_server(sid)


@dataclass(frozen=True)
class DelaySpike:
    """Add ``extra`` seconds to messages touching ``servers`` for a window."""

    at: float
    until: float
    extra: float
    servers: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        _check_window(self.at, self.until, "DelaySpike")
        if self.extra <= 0:
            raise ConfigError(f"DelaySpike extra must be positive, got {self.extra}")
        if self.servers is not None:
            object.__setattr__(self, "servers", tuple(self.servers))
            for sid in self.servers:
                _check_server(sid)


@dataclass(frozen=True)
class SlowNode:
    """Multiply ``server_id``'s speed by ``factor`` for ``[at, until)``."""

    server_id: int
    at: float
    until: float
    factor: float

    def __post_init__(self):
        _check_window(self.at, self.until, "SlowNode")
        _check_server(self.server_id)
        if not 0.0 < self.factor < 1.0:
            raise ConfigError(
                f"SlowNode factor must be in (0, 1), got {self.factor}"
            )


FaultEntry = Union[Crash, Recover, Pause, Partition, PacketLoss, DelaySpike, SlowNode]

#: Registry used by serialization; kind strings are the lowercase names.
_ENTRY_TYPES: Dict[str, type] = {
    "crash": Crash,
    "recover": Recover,
    "pause": Pause,
    "partition": Partition,
    "packet_loss": PacketLoss,
    "delay_spike": DelaySpike,
    "slow_node": SlowNode,
}
_KIND_BY_TYPE = {cls: kind for kind, cls in _ENTRY_TYPES.items()}

#: Window entry types contribute a *_start and *_end scheduled event.
_WINDOWED = (Pause, Partition, PacketLoss, DelaySpike, SlowNode)

#: Entry types aimed at one server through ``server_id``.
_ONE_SERVER = (Crash, Recover, Pause, SlowNode)


def _check_time(value: float, label: str) -> None:
    if value < 0:
        raise ConfigError(f"{label} must be >= 0, got {value}")


def _check_window(at: float, until: float, label: str) -> None:
    if at < 0 or until <= at:
        raise ConfigError(f"invalid {label} window ({at}, {until})")


def _check_server(sid: int) -> None:
    if sid < 0:
        raise ConfigError(f"invalid server id {sid}")


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, time-ordered script of fault entries.

    Entries may be given in any order; scheduling sorts by time with the
    original order as a stable tie-break, so simultaneous entries apply
    deterministically and identically in both adapters.
    """

    entries: Tuple[FaultEntry, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        self._validate_lifecycle()

    def _validate_lifecycle(self) -> None:
        """Crash/Recover pairing, and one server's Pause windows disjoint.

        No double crash, no orphan recover.  A ``Pause`` must start after
        the same server's previous one ended: overlapping or touching
        windows are one window written twice, and are rejected rather
        than merged.
        """
        crashed: Dict[int, bool] = {}
        pause_end: Dict[int, float] = {}
        for _, _, kind, entry in self.scheduled_events():
            if kind == "crash":
                if crashed.get(entry.server_id):
                    raise ConfigError(
                        f"server {entry.server_id} crashed twice without recovery"
                    )
                crashed[entry.server_id] = True
            elif kind == "recover":
                if not crashed.get(entry.server_id):
                    raise ConfigError(
                        f"recover of server {entry.server_id} without a prior crash"
                    )
                crashed[entry.server_id] = False
            elif kind == "pause_start":
                sid = entry.server_id
                if entry.at <= pause_end.get(sid, -1.0):
                    raise ConfigError(
                        f"server {sid} has overlapping or touching Pause "
                        "windows; write them as one"
                    )
                pause_end[sid] = entry.until

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __bool__(self) -> bool:
        return bool(self.entries)

    def validate_for(self, n_servers: int, n_clients: int) -> None:
        """Check every referenced server/client id exists in the cluster."""
        for entry in self.entries:
            sids: Tuple[int, ...] = ()
            if isinstance(entry, _ONE_SERVER):
                sids = (entry.server_id,)
            elif getattr(entry, "servers", None) is not None:
                sids = entry.servers
            for sid in sids:
                if sid >= n_servers:
                    raise ConfigError(
                        f"fault plan references unknown server {sid} "
                        f"(cluster has {n_servers})"
                    )
            clients = getattr(entry, "clients", None)
            if clients is not None:
                for cid in clients:
                    if cid >= n_clients:
                        raise ConfigError(
                            f"fault plan references unknown client {cid} "
                            f"(cluster has {n_clients})"
                        )

    def scheduled_events(self) -> List[Tuple[float, int, str, FaultEntry]]:
        """Time-ordered ``(time, order, kind, entry)`` application points.

        Windowed entries contribute a ``<kind>_start`` at ``at`` and a
        ``<kind>_end`` at ``until``; instantaneous entries contribute one
        event.  ``order`` is the stable tie-break both adapters share.
        """
        raw: List[Tuple[float, int, str, FaultEntry]] = []
        for i, entry in enumerate(self.entries):
            kind = _KIND_BY_TYPE[type(entry)]
            if isinstance(entry, _WINDOWED):
                raw.append((entry.at, i, f"{kind}_start", entry))
                raw.append((entry.until, i, f"{kind}_end", entry))
            else:
                raw.append((entry.at, i, kind, entry))
        raw.sort(key=lambda item: (item[0], item[1]))
        return raw

    def timeline(self) -> List[Dict[str, Any]]:
        """The canonical applied-event dicts, in application order.

        Both adapters append exactly these dicts as they fire each event,
        so a completed sim run and a completed runtime run of the same
        plan report byte-identical timelines.
        """
        return [
            event_record(when, kind, entry)
            for when, _, kind, entry in self.scheduled_events()
        ]

    def fault_window(self) -> Optional[Tuple[float, float]]:
        """Earliest onset and latest end across all entries (None if empty)."""
        if not self.entries:
            return None
        events = self.scheduled_events()
        return events[0][0], events[-1][0]

    def slow_windows(self, server_id: int) -> Tuple[Tuple[float, float], ...]:
        """``(time, factor)`` speed steps for one server's SlowNode entries.

        Each entry yields ``(at, factor)`` and ``(until, 1.0)`` — the
        ``speed_steps`` of the simulator's ``ServiceModel``.
        """
        steps: List[Tuple[float, float]] = []
        for entry in self.entries:
            if isinstance(entry, SlowNode) and entry.server_id == server_id:
                steps.append((entry.at, entry.factor))
                steps.append((entry.until, 1.0))
        return tuple(steps)

    # ------------------------------------------------------------------
    # Serialization (plan files)
    # ------------------------------------------------------------------
    def to_dicts(self) -> List[Dict[str, Any]]:
        """JSON-able entry list; round-trips through :meth:`from_dicts`."""
        out = []
        for entry in self.entries:
            d: Dict[str, Any] = {"kind": _KIND_BY_TYPE[type(entry)]}
            for f in fields(entry):
                value = getattr(entry, f.name)
                d[f.name] = list(value) if isinstance(value, tuple) else value
            out.append(d)
        return out

    @classmethod
    def from_dicts(cls, dicts: List[Dict[str, Any]]) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dicts` output (or a plan file)."""
        entries = []
        for d in dicts:
            d = dict(d)
            kind = d.pop("kind", None)
            entry_type = _ENTRY_TYPES.get(kind)
            if entry_type is None:
                known = ", ".join(sorted(_ENTRY_TYPES))
                raise ConfigError(f"unknown fault kind {kind!r}; known: {known}")
            for key in ("servers", "clients"):
                if isinstance(d.get(key), list):
                    d[key] = tuple(d[key])
            entries.append(entry_type(**d))
        return cls(tuple(entries))


def event_record(when: float, kind: str, entry: FaultEntry) -> Dict[str, Any]:
    """The canonical timeline dict for one applied event.

    Times are the *planned* times (identical to fire times in the sim;
    the runtime also records planned times so wall-clock jitter cannot
    break timeline parity).
    """
    record: Dict[str, Any] = {"at": when, "event": kind}
    if isinstance(entry, _ONE_SERVER):
        record["server"] = entry.server_id
    else:
        servers = getattr(entry, "servers", None)
        record["servers"] = list(servers) if servers is not None else None
    if isinstance(entry, Partition):
        record["clients"] = list(entry.clients) if entry.clients is not None else None
    if isinstance(entry, PacketLoss):
        record["probability"] = entry.probability
    if isinstance(entry, DelaySpike):
        record["extra"] = entry.extra
    if isinstance(entry, SlowNode):
        record["factor"] = entry.factor
    return record


#: Sentinel extra-delay meaning "drop the message".
DROP = float("inf")


class LinkFaults:
    """Currently-active link-level faults, consulted per message.

    ``verdict(src, dst)`` returns the extra delay to add to the message
    (0.0 when unaffected) or :data:`DROP` when the message must vanish.
    Endpoints are ``("client", id)`` / ``("server", id)`` tuples.  When
    no window is open, :attr:`active` is false and callers skip the
    check; it is a plain attribute, set whenever a window opens or closes,
    because every message of both halves reads it.
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
        #: Whether any window is open.
        self.active = False

    # -- window toggling (drivers only) --------------------------------
    def start(self, entry: FaultEntry) -> None:
        """Open ``entry``'s window.

        A ``PacketLoss`` window draws from a generator seeded with the
        entry's ``seed``; an entry opens once, so its draws repeat run
        to run.
        """
        if isinstance(entry, Partition):
            clients = frozenset(entry.clients) if entry.clients is not None else None
            self._partitions.append((clients, frozenset(entry.servers), entry))
        elif isinstance(entry, PacketLoss):
            servers = frozenset(entry.servers) if entry.servers is not None else None
            rng = np.random.default_rng(entry.seed)
            self._loss.append((servers, entry.probability, rng, entry))
        elif isinstance(entry, DelaySpike):
            servers = frozenset(entry.servers) if entry.servers is not None else None
            self._delay.append((servers, entry.extra, entry))
        else:
            raise TypeError(f"{type(entry).__name__} is not a link fault")
        self.active = True

    def end(self, entry: FaultEntry) -> None:
        """Close the window :meth:`start` opened for ``entry``."""
        if isinstance(entry, Partition):
            self._partitions = [p for p in self._partitions if p[2] is not entry]
        elif isinstance(entry, PacketLoss):
            self._loss = [l for l in self._loss if l[3] is not entry]
        elif isinstance(entry, DelaySpike):
            self._delay = [d for d in self._delay if d[2] is not entry]
        else:
            raise TypeError(f"{type(entry).__name__} is not a link fault")
        self.active = bool(self._partitions or self._loss or self._delay)

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

    def cut(self, src: Hashable, dst: Hashable) -> bool:
        """Whether an open partition cuts this link; counts and draws nothing."""
        client_id, server_id = self._endpoints(src, dst)
        return any(
            server_id in servers and (clients is None or client_id in clients)
            for clients, servers, _ in self._partitions
        )

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
