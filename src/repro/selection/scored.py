"""Estimate-scored selection policies: C3-style and Tars-style.

Both score every candidate replica from the client's
:class:`~repro.core.estimator.ServerEstimates` — the same per-server
EWMAs the DAS tagger consumes — so they add *zero* extra signalling:
the feedback DAS already collects doubles as the replica-selection
input, which is the whole point of the X1/X3 extension experiments.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

from repro.core.estimator import EwmaEstimator, ServerEstimates
from repro.errors import ConfigError
from repro.selection.base import SelectionPolicy

#: Floor for rate estimates so a near-dead server cannot divide by zero.
MIN_RATE = 1e-6

#: C3: EWMA weight for observed response latencies.
C3_ALPHA_LATENCY = 0.3
#: C3: queue slots one of *this client's* in-flight operations counts for.
C3_CONCURRENCY_WEIGHT = 1.0
#: Tars: staleness horizon in seconds; information older than a few of
#: these is discounted to the population mean.
TARS_TAU = 0.05
#: Tars: the new operation's own reference demand guess in seconds; keeps
#: the rate division meaningful when every queue is empty.
TARS_SERVICE_FLOOR = 200e-6


class C3Policy(SelectionPolicy):
    """C3-style replica ranking with a cubic queue penalty.

    Following Suresh et al. (NSDI'15), each replica is scored
    ``latency + (1 + inflight + queue)^3 * step`` where ``latency`` is a
    client-side EWMA of observed response times, ``queue`` is the
    server-reported queue length, and ``step`` is the estimated per-slot
    wait.  Cubing the queue term makes a long queue prohibitively
    expensive long before it would dominate a linear score, which is what
    prevents client herds from piling onto one briefly-idle server.
    ``estimates`` is the client's per-server feedback view.
    """

    name = "c3"
    wants_inflight = True
    wants_feedback = True

    def __init__(self, estimates: ServerEstimates):
        super().__init__()
        if estimates is None:
            raise ConfigError("selection='c3' requires estimates (feedback)")
        self._estimates = estimates
        self._latency: Dict[int, EwmaEstimator] = {}

    def on_response(self, server_id: int, now: float = 0.0, latency: float = 0.0) -> None:
        super().on_response(server_id, now, latency)
        ewma = self._latency.get(server_id)
        if ewma is None:
            ewma = self._latency[server_id] = EwmaEstimator(C3_ALPHA_LATENCY)
        if latency >= 0:
            ewma.update(latency)

    def _score(self, server_id: int, now: float) -> float:
        est = self._estimates
        queue = est.queue_length(server_id)
        wait = est.queued_work(server_id, now)
        # Per-slot wait: how long one queued op is expected to hold the
        # server.  Derived from the feedback itself when a queue exists.
        if queue > 0 and wait > 0:
            step = wait / queue
        else:
            step = wait if wait > 0 else MIN_RATE
        step /= max(est.rate(server_id), MIN_RATE)
        ewma = self._latency.get(server_id)
        latency = ewma.value_or(0.0) if ewma is not None else 0.0
        depth = 1.0 + C3_CONCURRENCY_WEIGHT * self.inflight_of(server_id) + queue
        return latency + depth**3 * step

    def _choose(self, key: str, candidates: Sequence[int], now: float) -> int:
        return min(candidates, key=lambda sid: (self._score(sid, now), sid))


class TarsPolicy(SelectionPolicy):
    """Tars-style timeliness-aware scoring on the DAS feedback estimates.

    Tars (Jiang et al.) weights congestion information by its *freshness*:
    a stale observation of a busy server should neither keep repelling
    traffic forever nor be trusted like a live reading.  Each candidate's
    expected wait is blended toward the candidate-set mean with weight
    ``1 - exp(-staleness / TARS_TAU)``, then divided by the server's
    estimated service rate so a degraded server stays expensive even when
    its queue estimate has drained:

    ``score = (w * wait + (1 - w) * mean_wait + TARS_SERVICE_FLOOR) / rate``

    ``estimates`` is the client's per-server feedback view (shared with
    the DAS tagger).
    """

    name = "tars"
    wants_inflight = True
    wants_feedback = True

    def __init__(self, estimates: ServerEstimates):
        super().__init__()
        if estimates is None:
            raise ConfigError("selection='tars' requires estimates (feedback)")
        self._estimates = estimates

    def _freshness(self, server_id: int, now: float) -> float:
        staleness = self._estimates.staleness(server_id, now)
        if staleness == float("inf"):
            return 0.0  # never heard from: trust the population mean
        return math.exp(-max(staleness, 0.0) / TARS_TAU)

    def _choose(self, key: str, candidates: Sequence[int], now: float) -> int:
        est = self._estimates
        waits = {sid: est.queued_work(sid, now) for sid in candidates}
        mean_wait = sum(waits.values()) / len(waits)

        def score(sid: int) -> float:
            w = self._freshness(sid, now)
            blended = w * waits[sid] + (1.0 - w) * mean_wait
            return (blended + TARS_SERVICE_FLOOR) / max(est.rate(sid), MIN_RATE)

        return min(candidates, key=lambda sid: (score(sid), sid))
