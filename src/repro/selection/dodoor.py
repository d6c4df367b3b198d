"""Dodoor-style selection: d-choices over a cached, bounded-stale load view.

At fleet scale (hundreds of servers) the per-request signal paths get
expensive: Prequal pays probe round-trips on the data path, and the
piggyback/C3/Tars style needs a *recent reply from that very server* to
have a fresh view.  Dodoor (PAPERS.md) inverts the flow — servers push
periodic asynchronous **load reports**, every client caches the latest
report per server, and selection is randomized d-choices ranked on the
cached load.  The control-plane cost is then O(servers / interval) for
the whole client, independent of the request rate, instead of
O(probes x requests).

The cache is *bounded stale*: entries older than ``max_staleness`` are
ignored (a crashed or partitioned server's last report must not pin
traffic forever).  When no sampled candidate has a fresh entry the policy
degrades to uniform random over the sample — exactly the d=1..d herd
behaviour of :class:`~repro.selection.static.RandomPolicy`, never a
crash, never a deterministic pin.

The refresh interval itself is a *cluster/server* knob (the reporter
lives clock-side: ``ClusterConfig.load_report_interval`` in the sim,
``KVServer(load_report_interval=...)`` in the runtime); the policy only
needs the staleness bound it tolerates.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence, Tuple

from repro.errors import ConfigError
from repro.selection.base import SelectionPolicy
from repro.selection.static import D_CHOICES, sample_choices
from repro.sim.rand import BatchedStream, as_batched

#: Default staleness bound, sized as a small multiple of the default
#: report interval (see ``FeedbackConfig.interval``): a cache entry
#: survives a couple of missed reports, then expires.
DEFAULT_MAX_STALENESS = 25e-3


class DodoorPolicy(SelectionPolicy):
    """Randomized d-choices over a load cache fed by periodic reports.

    Each decision samples :data:`~repro.selection.static.D_CHOICES`
    candidates.  The one knob, ``max_staleness``, is the age in seconds
    after which a cached load report is ignored (default 25 ms ~= a few
    missed reports at the default 5 ms interval).

    The cache is fed exclusively through :meth:`observe_feedback` — the
    same funnel piggyback replies and probe answers use — so the policy
    works (with degraded freshness) even without a periodic reporter.
    Load is the reported queued work in seconds plus the *local*
    requests-in-flight count scaled tiny, which breaks herd ties between
    servers that reported identical queue depth.
    """

    name = "dodoor"
    wants_inflight = True
    wants_feedback = True
    wants_load_reports = True

    def __init__(self, rng, max_staleness: float = DEFAULT_MAX_STALENESS):
        super().__init__()
        if rng is None:
            raise ConfigError("selection='dodoor' requires an rng")
        if max_staleness <= 0:
            raise ConfigError(
                f"dodoor needs max_staleness > 0, got {max_staleness}"
            )
        self._rng: BatchedStream = as_batched(rng)
        self.max_staleness = max_staleness
        #: server_id -> (reported queued work seconds, report timestamp).
        self._cache: Dict[int, Tuple[float, float]] = {}
        self.reports_cached = 0
        self.expired_lookups = 0
        self.blind_decisions = 0

    # ------------------------------------------------------------------
    def observe_feedback(self, feedback, now: float = 0.0) -> None:
        """Cache the latest load report (or piggybacked snapshot)."""
        self._cache[feedback.server_id] = (feedback.queued_work, now)
        self.reports_cached += 1

    def cached_load(self, server_id: int, now: float):
        """The fresh cached load for ``server_id``, or None when stale."""
        entry = self._cache.get(server_id)
        if entry is None:
            return None
        load, stamp = entry
        if now - stamp > self.max_staleness:
            self.expired_lookups += 1
            return None
        return load

    # ------------------------------------------------------------------
    def _choose(self, key: str, candidates: Sequence[int], now: float) -> int:
        sampled = sample_choices(self._rng, candidates)
        best = None
        best_rank = None
        for sid in sampled:
            load = self.cached_load(sid, now)
            if load is None:
                continue
            # The in-flight nudge decorrelates clients between reports:
            # two servers that reported identical load diverge as soon as
            # this client has dispatched to one of them.
            rank = (load + 1e-6 * self.inflight_of(sid), sid)
            if best_rank is None or rank < best_rank:
                best_rank = rank
                best = sid
        if best is not None:
            return best
        # Every sampled entry is missing or expired: degrade to uniform
        # random among the sample.  The Fisher-Yates order is already a
        # uniform draw, so the first sampled element is uniform over the
        # candidates — no low-server-id pinning.
        self.blind_decisions += 1
        return sampled[0]

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Base stats plus cache freshness/degradation counters."""
        base = super().stats()
        base.update(
            {
                "d": D_CHOICES,
                "max_staleness": self.max_staleness,
                "cache_size": len(self._cache),
                "reports_cached": self.reports_cached,
                "expired_lookups": self.expired_lookups,
                "blind_decisions": self.blind_decisions,
            }
        )
        return base
