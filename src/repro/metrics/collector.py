"""Request-level metrics collection during a simulation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import ConfigError
from repro.kvstore.items import Request
from repro.metrics.summary import SummaryStats, summarize


@dataclass(frozen=True)
class RequestRecord:
    """Flat record of one completed request (detached from live objects)."""

    request_id: int
    client_id: int
    arrival_time: float
    completion_time: float
    fanout: int
    total_demand: float
    bottleneck_demand: float
    total_bytes: int

    @property
    def rct(self) -> float:
        return self.completion_time - self.arrival_time

    @property
    def slowdown(self) -> float:
        """RCT normalized by the request's own bottleneck demand.

        A slowdown of 1 means the request finished as fast as its largest
        server-slice could possibly allow (no queueing, nominal speed).
        """
        return self.rct / max(self.bottleneck_demand, 1e-12)


class MetricsCollector:
    """Accumulates completed requests and answers summary queries."""

    def __init__(self):
        self._records: List[RequestRecord] = []
        self.ops_completed = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_request(self, request: Request) -> None:
        """Snapshot a completed request."""
        if not request.done:
            raise ConfigError(f"request {request.request_id} has not completed")
        self._records.append(
            RequestRecord(
                request_id=request.request_id,
                client_id=request.client_id,
                arrival_time=request.arrival_time,
                completion_time=request.completion_time,
                fanout=request.fanout,
                total_demand=request.total_demand,
                bottleneck_demand=request.bottleneck_demand(),
                total_bytes=request.total_bytes,
            )
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> List[RequestRecord]:
        return list(self._records)

    def filtered(
        self,
        warmup_time: float = 0.0,
        cooldown_time: Optional[float] = None,
    ) -> List[RequestRecord]:
        """Records arriving in the steady-state window.

        ``warmup_time`` drops requests that arrived before it; an optional
        ``cooldown_time`` drops those arriving after it (end effects).
        """
        out = [r for r in self._records if r.arrival_time >= warmup_time]
        if cooldown_time is not None:
            out = [r for r in out if r.arrival_time <= cooldown_time]
        return out

    def rcts(self, warmup_time: float = 0.0) -> np.ndarray:
        """Array of request completion times in the steady-state window."""
        return np.asarray(
            [r.rct for r in self.filtered(warmup_time)], dtype=np.float64
        )

    def slowdowns(self, warmup_time: float = 0.0) -> np.ndarray:
        return np.asarray(
            [r.slowdown for r in self.filtered(warmup_time)], dtype=np.float64
        )

    def summary(self, warmup_time: float = 0.0) -> SummaryStats:
        """Full summary of RCTs in the steady-state window."""
        return summarize(self.rcts(warmup_time))

    def warmup_time_for_fraction(self, fraction: float) -> float:
        """Arrival time below which the first ``fraction`` of requests fall."""
        if not 0 <= fraction < 1:
            raise ConfigError("fraction must be in [0, 1)")
        if not self._records or fraction == 0:
            return 0.0
        arrivals = sorted(r.arrival_time for r in self._records)
        idx = int(fraction * len(arrivals))
        return arrivals[min(idx, len(arrivals) - 1)]

    def mean_rct(self, warmup_time: float = 0.0) -> float:
        rcts = self.rcts(warmup_time)
        if rcts.size == 0:
            raise ConfigError("no completed requests after warmup")
        return float(rcts.mean())
