"""The four workloads' configurations, spelled out.

Only stable public surface is used (``ClusterConfig`` and the
``repro.workload`` spec classes for the simulator, ``LocalCluster``
arguments for the runtime).  Nothing here goes through
``experiments.scenarios`` or ``runtime.loadgen``: both are slated for
rewrite, and a change to them must not change what the benchmark runs.
"""

from __future__ import annotations

from typing import Any, Dict

from repro import ClusterConfig, ServiceConfig
from repro.workload import (
    GeometricFanout,
    LognormalSize,
    PoissonArrivals,
    UniformPopularity,
)
from repro.workload.requests import arrival_rate_for_load

#: The paper's traffic pattern with uniform popularity, so the offered
#: load per server equals the calibrated 0.7.
LOAD = 0.7
SERVICE = ServiceConfig()
FANOUT = GeometricFanout(mean_target=5.0, cap=64)
SIZES = LognormalSize(median=1024.0, sigma=1.0, cap=1 << 18)
SIM_WARMUP_FRACTION = 0.1

#: ``sim-fleet-256``: the X5 headline cell's knobs.
FLEET_OVERRIDES: Dict[str, Any] = dict(
    replication_factor=3,
    replica_selection="dodoor",
    load_report_interval=10e-3,
    replica_selection_params={"max_staleness": 25e-3},
    tenants=4,
)


def sim_config(name: str, seed: int, scheduler: str = "das") -> ClusterConfig:
    """Cluster config of ``sim-cell-16`` / ``sim-fleet-256``."""
    n_servers, overrides = {
        "sim-cell-16": (16, {}),
        "sim-fleet-256": (256, FLEET_OVERRIDES),
    }[name]
    rate = arrival_rate_for_load(
        LOAD, FANOUT.mean(), SERVICE.mean_demand(SIZES.mean()), n_servers
    )
    return ClusterConfig(
        n_servers=n_servers,
        n_clients=4,
        seed=seed,
        scheduler=scheduler,
        keyspace_size=10_000,
        arrivals=PoissonArrivals(rate=rate),
        fanout=FANOUT,
        sizes=SIZES,
        popularity=UniformPopularity(),
        service=SERVICE,
        **overrides,
    )


#: Both runtime workloads: the repo's in-process cluster on loopback, no
#: emulated service time, so the host's own cost is what is measured.
RT_CLUSTER: Dict[str, Any] = dict(n_servers=4, scheduler="das", byte_rate=None)
RT_KEYS = 2_000

#: ``rt-get-small``
CLOSED_CALLERS = 2
CLOSED_FANOUT = 8
CLOSED_VALUE_BYTES = 256

#: ``rt-mixed-open``
OPEN_RATE = 400.0
OPEN_PUT_SHARE = 0.2
OPEN_FANOUT_MEAN = 5.0
OPEN_FANOUT_CAP = 16
OPEN_LARGE_SHARE = 0.2
OPEN_LARGE_BYTES = 16 * 1024
OPEN_SMALL_BYTES = 1024
