"""Closed-form queueing predictions (M/M/1, M/G/1) for validation.

Applicability: fan-out 1 (each request is one operation), FCFS service,
uniform key popularity (so per-server arrivals are Poisson-split), no
service noise, and stable load.  Under those conditions each server is an
independent M/G/1 queue and the mean request completion time is

    E[RCT] = Wq + E[S] + 2 * network_delay

with ``Wq`` from the Pollaczek–Khinchine formula
``Wq = lambda * E[S^2] / (2 * (1 - rho))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import ConfigError
from repro.kvstore.config import ClusterConfig
from repro.workload.requests import Keyspace


def mm1_mean_wait(lam: float, mu: float) -> float:
    """Mean queueing delay (excluding service) of an M/M/1 queue."""
    if mu <= 0:
        raise ConfigError("service rate must be positive")
    rho = lam / mu
    if not 0 <= rho < 1:
        raise ConfigError(f"M/M/1 unstable or invalid: rho={rho:.3f}")
    return rho / (mu - lam)


def mg1_mean_wait(lam: float, es: float, es2: float) -> float:
    """Pollaczek–Khinchine mean queueing delay of an M/G/1 queue.

    Parameters
    ----------
    lam:
        Arrival rate.
    es, es2:
        First and second moments of the service-time distribution.
    """
    if es <= 0 or es2 <= 0:
        raise ConfigError("service moments must be positive")
    if es2 < es * es:
        raise ConfigError("E[S^2] must be >= E[S]^2")
    rho = lam * es
    if not 0 <= rho < 1:
        raise ConfigError(f"M/G/1 unstable or invalid: rho={rho:.3f}")
    return lam * es2 / (2.0 * (1.0 - rho))


def service_moments_from_keyspace(
    keyspace: Keyspace, per_op_overhead: float, byte_rate: float
) -> Tuple[float, float]:
    """Exact (E[S], E[S^2]) over the materialized keyspace, uniform keys.

    With uniform popularity every key is equally likely, so the service
    time of a random operation takes value ``overhead + size_i/byte_rate``
    with probability 1/N — moments are exact sums, not estimates.
    """
    services = per_op_overhead + keyspace.value_sizes.astype(np.float64) / byte_rate
    return float(services.mean()), float((services**2).mean())


@dataclass(frozen=True)
class SingleQueuePrediction:
    """Theory prediction for a single-key FCFS configuration."""

    per_server_lambda: float
    rho: float
    mean_service: float
    mean_wait: float
    mean_rct: float


def predict_single_key_fcfs(
    config: ClusterConfig, keyspace: Keyspace, ring=None
) -> SingleQueuePrediction:
    """M/G/1 prediction of mean RCT for a fan-out-1 FCFS cluster.

    Requires: fan-out fixed at 1, uniform popularity, zero service noise,
    homogeneous nominal-speed servers, no fault plan, replication 1.
    Raises ConfigError when the configuration is outside that envelope.

    When ``ring`` (the cluster's :class:`ConsistentHashRing`) is supplied,
    the prediction is computed *per server* from the exact set of keys each
    server owns — near saturation ``Wq ∝ 1/(1-rho)`` amplifies even small
    ownership imbalance, so the exact split is markedly more accurate than
    the uniform-split approximation used otherwise.
    """
    if config.fanout.mean() != 1.0 or config.fanout.max_fanout() != 1:
        raise ConfigError("prediction requires fan-out exactly 1")
    if config.service.noise_cv != 0:
        raise ConfigError("prediction requires zero service noise")
    if config.server_speeds is not None or config.fault_plan:
        raise ConfigError("prediction requires homogeneous healthy servers")
    if config.replication_factor != 1:
        raise ConfigError("prediction requires replication factor 1")
    type_name = type(config.popularity).__name__
    if type_name != "UniformPopularity":
        raise ConfigError("prediction requires uniform key popularity")

    total_rate = config.arrivals.mean_rate()
    overhead = config.service.per_op_overhead
    byte_rate = config.service.byte_rate
    net = 2.0 * config.network_base_delay

    if ring is None:
        # Uniform-split approximation.
        lam = total_rate / config.n_servers
        es, es2 = service_moments_from_keyspace(keyspace, overhead, byte_rate)
        wait = mg1_mean_wait(lam, es, es2)
        return SingleQueuePrediction(
            per_server_lambda=lam,
            rho=lam * es,
            mean_service=es,
            mean_wait=wait,
            mean_rct=wait + es + net,
        )

    # Exact split: group keys by owner; each server is its own M/G/1 with
    # arrival share proportional to owned-key count (uniform popularity).
    services_by_server: dict[int, list] = {}
    for idx in range(keyspace.size):
        owner = ring.owner(keyspace.key_name(idx))
        services_by_server.setdefault(owner, []).append(
            overhead + keyspace.value_size(idx) / byte_rate
        )
    n_keys = keyspace.size
    mean_rct = 0.0
    weighted_lambda = 0.0
    weighted_rho = 0.0
    weighted_es = 0.0
    weighted_wait = 0.0
    for services in services_by_server.values():
        arr = np.asarray(services, dtype=np.float64)
        share = arr.size / n_keys
        lam_s = total_rate * share
        es_s = float(arr.mean())
        es2_s = float((arr**2).mean())
        wait_s = mg1_mean_wait(lam_s, es_s, es2_s)
        # A random request lands on this server with probability `share`.
        mean_rct += share * (wait_s + es_s + net)
        weighted_lambda += share * lam_s
        weighted_rho += share * lam_s * es_s
        weighted_es += share * es_s
        weighted_wait += share * wait_s
    return SingleQueuePrediction(
        per_server_lambda=weighted_lambda,
        rho=weighted_rho,
        mean_service=weighted_es,
        mean_wait=weighted_wait,
        mean_rct=mean_rct,
    )
