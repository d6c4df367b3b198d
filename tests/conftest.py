"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.kvstore.config import ClusterConfig, ServiceConfig, SimulationConfig
from repro.sim.core import Environment
from repro.workload.arrivals import PoissonArrivals
from repro.workload.fanout import FixedFanout
from repro.workload.popularity import UniformPopularity
from repro.workload.requests import arrival_rate_for_load
from repro.workload.sizes import FixedSize


@pytest.fixture
def env() -> Environment:
    return Environment()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def small_config(
    scheduler: str = "fcfs",
    load: float = 0.6,
    n_servers: int = 4,
    fanout: int = 3,
    value_size: int = 1024,
    seed: int = 7,
    **overrides,
) -> ClusterConfig:
    """A small, fast, deterministic cluster config for tests.

    Fixed fan-out / fixed sizes / uniform keys keep the math exact so
    tests can assert on calibrated loads.
    """
    service = overrides.pop("service", ServiceConfig(noise_cv=0.0))
    mean_demand = service.mean_demand(value_size)
    rate = arrival_rate_for_load(load, fanout, mean_demand, n_servers)
    return ClusterConfig(
        n_servers=n_servers,
        n_clients=overrides.pop("n_clients", 2),
        seed=seed,
        scheduler=scheduler,
        keyspace_size=overrides.pop("keyspace_size", 500),
        arrivals=overrides.pop("arrivals", PoissonArrivals(rate=rate)),
        fanout=overrides.pop("fanout_spec", FixedFanout(k=fanout)),
        sizes=overrides.pop("sizes", FixedSize(size=value_size)),
        popularity=overrides.pop("popularity", UniformPopularity()),
        service=service,
        **overrides,
    )


def quick_sim(max_requests: int = 400) -> SimulationConfig:
    return SimulationConfig(max_requests=max_requests, warmup_fraction=0.1)


async def end_window_at(faults, entry, server, counter: str, count: int) -> None:
    """End ``entry``'s window on ``faults`` once ``server.<counter>`` is ``count``.

    Polls a runtime server's fault counter (``dropped`` / ``delayed``),
    so a window opened for ``count`` faults closes on the last of them,
    not after a guessed wait.
    """
    while getattr(server, counter) < count:
        await asyncio.sleep(0.001)
    faults.end(entry)
