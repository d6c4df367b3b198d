"""Prequal-style probe-pool selection: hot/cold lexicographic picking.

Prequal (Wydrowski et al., NSDI'24) selects replicas from a small pool of
recent *probes*, each reporting a server's requests-in-flight (RIF) and a
latency signal.  Servers whose RIF sits above :data:`HOT_QUANTILE` of
the pool are *hot*; the pick is lexicographic:

* some candidate is cold  -> the cold candidate with the lowest latency;
* every candidate is hot  -> the candidate with the lowest RIF.

This "hot by RIF, cold by latency" split is what makes Prequal robust in
degraded/heterogeneous clusters: latency alone chases fast-but-loaded
servers, RIF alone ignores slow service.

Probes here are fed through :meth:`PrequalPolicy.observe_feedback` — in
the simulator every piggybacked/periodic feedback snapshot doubles as a
probe; in the runtime the client additionally issues control-plane
``probe`` messages (see ``repro.runtime.client``) whose replies arrive
through the same funnel, keeping the pool fresh for servers the client is
not currently reading from.  Probes expire after :data:`MAX_AGE` seconds
and the pool is bounded to :data:`POOL_SIZE` entries (oldest evicted
first).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Sequence

from collections import deque

from repro.selection.base import SelectionPolicy

#: Maximum probes kept, as in the paper's client pool.
POOL_SIZE = 16
#: Probes older than this many seconds are expired before every decision.
MAX_AGE = 1.0
#: Pool-RIF quantile above which a server counts as hot.
HOT_QUANTILE = 0.75
#: Latency charged per local in-flight op for candidates with no probe
#: yet, so concurrent cold-start picks spread instead of piling onto the
#: lowest server id.
COLD_START_LATENCY = 1e-3


@dataclass(frozen=True)
class Probe:
    """One load sample: a server's RIF + latency signal at time ``t``."""

    server_id: int
    rif: float
    latency: float
    t: float


class PrequalPolicy(SelectionPolicy):
    """Probe-pool selection with hot/cold lexicographic picking."""

    name = "prequal"
    wants_inflight = True
    wants_feedback = True
    wants_probes = True

    def __init__(self):
        super().__init__()
        self._pool: Deque[Probe] = deque()
        self.probes_added = 0
        self.probes_expired = 0

    # ------------------------------------------------------------------
    # Pool maintenance
    # ------------------------------------------------------------------
    def add_probe(
        self, server_id: int, rif: float, latency: float, now: float
    ) -> None:
        """Fold one probe result into the pool (oldest evicted at capacity)."""
        self._pool.append(Probe(server_id, float(rif), float(latency), now))
        self.probes_added += 1
        while len(self._pool) > POOL_SIZE:
            self._pool.popleft()

    def observe_feedback(self, feedback, now: float = 0.0) -> None:
        """Every feedback snapshot doubles as a probe.

        RIF is the reported queue length; the latency signal is the
        reported expected wait (``queued_work`` is already in wall
        seconds) — both halves of the system feed the pool through this
        one method, so the policy behaves identically in sim and runtime.
        """
        self.add_probe(
            feedback.server_id, feedback.queue_length, feedback.queued_work, now
        )

    def _expire(self, now: float) -> None:
        horizon = now - MAX_AGE
        while self._pool and self._pool[0].t < horizon:
            self._pool.popleft()
            self.probes_expired += 1

    @property
    def pool(self) -> Sequence[Probe]:
        """The current probe pool, oldest first (read-only view)."""
        return tuple(self._pool)

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def _latest_per_server(self) -> Dict[int, Probe]:
        latest: Dict[int, Probe] = {}
        for probe in self._pool:  # oldest -> newest, so later wins
            latest[probe.server_id] = probe
        return latest

    def _rif_threshold(self) -> Optional[float]:
        rifs = sorted(probe.rif for probe in self._pool)
        if not rifs:
            return None
        # Nearest-rank quantile over the pool's RIF distribution.
        rank = max(0, math.ceil(HOT_QUANTILE * len(rifs)) - 1)
        return rifs[rank]

    def _choose(self, key: str, candidates: Sequence[int], now: float) -> int:
        self._expire(now)
        latest = self._latest_per_server()
        # Candidates with no probe are treated as cold: an unprobed
        # server is worth exploring, charged only for our own in-flight.
        entries = []
        for sid in candidates:
            probe = latest.get(sid)
            if probe is None:
                rif = float(self.inflight_of(sid))
                latency = COLD_START_LATENCY * self.inflight_of(sid)
                entries.append((sid, rif, latency, True))
            else:
                entries.append((sid, probe.rif, probe.latency, False))
        threshold = self._rif_threshold()
        if threshold is None:
            cold = entries
        else:
            cold = [e for e in entries if e[3] or e[1] <= threshold]
        if cold:
            # Cold pick: lowest latency signal wins.
            sid, _, _, _ = min(cold, key=lambda e: (e[2], e[0]))
            return sid
        # Everything is hot: lowest RIF wins.
        sid, _, _, _ = min(entries, key=lambda e: (e[1], e[0]))
        return sid

    # ------------------------------------------------------------------
    def stats(self):
        """Pick summary plus probe-pool health counters."""
        base = super().stats()
        base.update(
            {
                "pool_size": len(self._pool),
                "probes_added": self.probes_added,
                "probes_expired": self.probes_expired,
            }
        )
        return base
