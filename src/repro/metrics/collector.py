"""Request-level metrics collection during a simulation."""

from __future__ import annotations

from array import array
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
    """Accumulates completed requests and answers summary queries.

    Each completed request appends one machine value to each of eight
    per-field columns (``array.array``, 8 bytes a value);
    :class:`RequestRecord` objects are built only when :attr:`records` or
    :meth:`filtered` asks for them.
    """

    def __init__(self):
        self._request_ids = array("q")
        self._client_ids = array("q")
        self._arrivals = array("d")
        self._completions = array("d")
        self._fanouts = array("q")
        self._total_demands = array("d")
        self._bottlenecks = array("d")
        self._total_bytes = array("q")
        self.ops_completed = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_request(self, request: Request) -> None:
        """Snapshot a completed request.

        Reads plain fields only: the totals were added up when the request
        was built, and the bottleneck when it was tagged (worked out here
        only for a request no tagger saw).
        """
        completion = request.completion_time
        if completion != completion:  # NaN: not done
            raise ConfigError(f"request {request.request_id} has not completed")
        bottleneck = request.bottleneck
        if bottleneck is None:
            bottleneck = request.bottleneck_demand()
        self._request_ids.append(request.request_id)
        self._client_ids.append(request.client_id)
        self._arrivals.append(request.arrival_time)
        self._completions.append(completion)
        self._fanouts.append(len(request.operations))
        self._total_demands.append(request.total_demand)
        self._bottlenecks.append(bottleneck)
        self._total_bytes.append(request.total_bytes)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._request_ids)

    def _columns(self) -> tuple:
        return (
            self._request_ids,
            self._client_ids,
            self._arrivals,
            self._completions,
            self._fanouts,
            self._total_demands,
            self._bottlenecks,
            self._total_bytes,
        )

    @property
    def records(self) -> List[RequestRecord]:
        return [RequestRecord(*row) for row in zip(*self._columns())]

    def _window(self, warmup_time: float) -> np.ndarray:
        """Mask of the requests that arrived at or after ``warmup_time``."""
        return np.asarray(self._arrivals, dtype=np.float64) >= warmup_time

    def filtered(
        self,
        warmup_time: float = 0.0,
        cooldown_time: Optional[float] = None,
    ) -> List[RequestRecord]:
        """Records arriving in the steady-state window.

        ``warmup_time`` drops requests that arrived before it; an optional
        ``cooldown_time`` drops those arriving after it (end effects).
        """
        return [
            RequestRecord(*row)
            for row in zip(*self._columns())
            if row[2] >= warmup_time
            and (cooldown_time is None or row[2] <= cooldown_time)
        ]

    def rcts(self, warmup_time: float = 0.0) -> np.ndarray:
        """Array of request completion times in the steady-state window."""
        rcts = np.asarray(self._completions, dtype=np.float64) - np.asarray(
            self._arrivals, dtype=np.float64
        )
        return rcts[self._window(warmup_time)]

    def slowdowns(self, warmup_time: float = 0.0) -> np.ndarray:
        bottlenecks = np.maximum(
            np.asarray(self._bottlenecks, dtype=np.float64), 1e-12
        )
        slowdowns = self.rcts() / bottlenecks
        return slowdowns[self._window(warmup_time)]

    def summary(self, warmup_time: float = 0.0) -> SummaryStats:
        """Full summary of RCTs in the steady-state window."""
        return summarize(self.rcts(warmup_time))

    def warmup_time_for_fraction(self, fraction: float) -> float:
        """Arrival time below which the first ``fraction`` of requests fall."""
        if not 0 <= fraction < 1:
            raise ConfigError("fraction must be in [0, 1)")
        if not self._arrivals or fraction == 0:
            return 0.0
        arrivals = sorted(self._arrivals)
        idx = int(fraction * len(arrivals))
        return arrivals[min(idx, len(arrivals) - 1)]

    def mean_rct(self, warmup_time: float = 0.0) -> float:
        rcts = self.rcts(warmup_time)
        if rcts.size == 0:
            raise ConfigError("no completed requests after warmup")
        return float(rcts.mean())
