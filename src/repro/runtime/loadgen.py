"""Load generation against the asyncio runtime (open- or closed-loop).

Drives a :class:`~repro.runtime.client.RuntimeClient` with the same
workload specs the simulator uses (arrivals / fan-out / popularity over a
preloaded keyspace) and measures wall-clock multiget completion times —
the bridge for checking that simulator conclusions carry over to the real
implementation.

Two generation modes, selected by ``mode`` (or by a declarative workload
spec via :meth:`LoadGenerator.from_spec`):

* **open** (default) — requests launch on the arrival process's schedule
  whether or not earlier ones finished (each multiget is an independent
  task), so the generator exerts real queueing pressure instead of
  self-throttling.  Each request is timed from the instant it was due,
  so a generator that falls behind reports its own lateness instead of
  hiding it (coordinated omission);
* **closed** — ``closed_concurrency`` workers each keep exactly one
  multiget in flight, issuing the next only when the previous completes;
  the offered rate self-throttles to the store's service rate, the
  arrival clock is ignored, and requests are timed from issue.  See
  docs/workloads.md for when each mode is the right measurement.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.errors import ConfigError
from repro.metrics.summary import SummaryStats, summarize
from repro.runtime.client import RuntimeClient
from repro.sim.rand import as_batched
from repro.workload.arrivals import ArrivalSpec
from repro.workload.fanout import FanoutSpec
from repro.workload.popularity import PopularitySpec


@dataclass
class LoadgenResult:
    """Outcome of one load-generation run."""

    latencies: List[float] = field(default_factory=list)
    errors: int = 0
    launched: int = 0
    wall_seconds: float = 0.0

    def summary(self) -> SummaryStats:
        if not self.latencies:
            raise ConfigError("no completed requests to summarize")
        return summarize(self.latencies)

    @property
    def throughput(self) -> float:
        """Completed multigets per wall second."""
        if self.wall_seconds <= 0:
            return 0.0
        return len(self.latencies) / self.wall_seconds


class LoadGenerator:
    """Fires multigets at a connected client on an arrival schedule.

    Parameters
    ----------
    client:
        A connected :class:`RuntimeClient`.
    keys:
        The preloaded keyspace to draw from (index-addressed).
    arrivals / fanout / popularity:
        Workload specs, identical to the simulator's.
    seed:
        Seeds the three independent draw streams.
    """

    def __init__(
        self,
        client: RuntimeClient,
        keys: List[str],
        arrivals: ArrivalSpec,
        fanout: FanoutSpec,
        popularity: PopularitySpec,
        seed: int = 0,
        mode: str = "open",
        closed_concurrency: int = 4,
    ):
        if not keys:
            raise ConfigError("keyspace is empty")
        if fanout.max_fanout() > len(keys):
            raise ConfigError("max fanout exceeds keyspace size")
        if mode not in ("open", "closed"):
            raise ConfigError(f"mode must be 'open' or 'closed', got {mode!r}")
        if closed_concurrency < 1:
            raise ConfigError("closed_concurrency must be >= 1")
        self.client = client
        self.keys = list(keys)
        self.mode = mode
        self.closed_concurrency = closed_concurrency
        self._gap = arrivals.gaps(as_batched(np.random.default_rng(seed)))
        self._fanout = fanout
        self._fanout_stream = as_batched(np.random.default_rng(seed + 1))
        self._popularity = popularity.build(len(keys), np.random.default_rng(seed + 2))

    def _next_keys(self) -> List[str]:
        """The next request's keys: one fan-out, then its distinct keys."""
        counts = self._fanout.draw(self._fanout_stream, 1)
        return [self.keys[i] for i in self._popularity.sample_block(counts)]

    @classmethod
    def from_spec(
        cls,
        client: RuntimeClient,
        keys: List[str],
        spec,
        seed: int = 0,
    ) -> "LoadGenerator":
        """Build a generator from a declarative :class:`WorkloadSpec`.

        Uses the spec's arrival shape at its *declared* (absolute) rates —
        the runtime has no analytic capacity model to calibrate a ``load``
        target against — plus its fan-out, popularity, and generation
        mode.  Trace specs are simulator-only and are rejected here.
        """
        from repro.errors import WorkloadError

        if spec.trace is not None:
            raise WorkloadError(
                f"spec {spec.name!r}: trace replay is not supported by the "
                "runtime load generator (simulator only)"
            )
        return cls(
            client,
            keys,
            arrivals=spec.arrivals,
            fanout=spec.fanout,
            popularity=spec.popularity,
            seed=seed,
            mode=spec.mode,
            closed_concurrency=spec.closed_concurrency,
        )

    async def run(
        self,
        n_requests: Optional[int] = None,
        duration: Optional[float] = None,
    ) -> LoadgenResult:
        """Generate load until ``n_requests`` launched or ``duration`` passed."""
        if (n_requests is None) == (duration is None):
            raise ConfigError("set exactly one of n_requests / duration")
        result = LoadgenResult()
        tasks: List[asyncio.Task] = []
        t0 = time.monotonic()
        virtual_now = 0.0

        async def one(keys: List[str], due: Optional[float] = None) -> None:
            start = time.monotonic() if due is None else due
            try:
                await self.client.multiget(keys)
            except Exception:  # noqa: BLE001 - counted, not raised
                result.errors += 1
                return
            result.latencies.append(time.monotonic() - start)

        if self.mode == "closed":
            return await self._run_closed(n_requests, duration, result, one, t0)

        while True:
            if n_requests is not None and result.launched >= n_requests:
                break
            gap = self._gap(virtual_now)
            if gap == float("inf"):
                break
            virtual_now += gap
            if duration is not None and virtual_now > duration:
                break
            # Sleep until the scheduled launch instant (open loop).
            delay = virtual_now - (time.monotonic() - t0)
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(
                asyncio.create_task(one(self._next_keys(), t0 + virtual_now))
            )
            result.launched += 1

        if tasks:
            await asyncio.gather(*tasks)
        result.wall_seconds = time.monotonic() - t0
        return result

    async def _run_closed(
        self,
        n_requests: Optional[int],
        duration: Optional[float],
        result: LoadgenResult,
        one,
        t0: float,
    ) -> LoadgenResult:
        """Closed-loop: N workers, one outstanding multiget each."""

        def can_issue() -> bool:
            if n_requests is not None and result.launched >= n_requests:
                return False
            if duration is not None and time.monotonic() - t0 >= duration:
                return False
            return True

        async def worker() -> None:
            while can_issue():
                result.launched += 1
                await one(self._next_keys())

        await asyncio.gather(
            *(worker() for _ in range(self.closed_concurrency))
        )
        result.wall_seconds = time.monotonic() - t0
        return result
