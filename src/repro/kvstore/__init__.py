"""Simulated distributed key-value store substrate.

This package models the system the paper schedules: front-end clients issue
*multiget* requests whose key-value operations fan out to the servers that
own the keys; each server serves its queue one operation at a time under a
pluggable scheduling policy; responses carry piggybacked feedback back to
the client.

Public entry point: :class:`~repro.kvstore.cluster.Cluster`, built from a
:class:`~repro.kvstore.config.ClusterConfig`.

Submodule attributes are re-exported lazily (PEP 562) because the higher
layers here (client, server, cluster) depend on :mod:`repro.core` and
:mod:`repro.schedulers`, which in turn depend on the leaf data model in
:mod:`repro.kvstore.items` — lazy export keeps that layering acyclic.
"""

from typing import TYPE_CHECKING

_EXPORTS = {
    "Client": "repro.kvstore.client",
    "Cluster": "repro.kvstore.cluster",
    "RunResult": "repro.kvstore.cluster",
    "run_cluster": "repro.kvstore.cluster",
    "ClusterConfig": "repro.kvstore.config",
    "ServiceConfig": "repro.kvstore.config",
    "SimulationConfig": "repro.kvstore.config",
    "Feedback": "repro.kvstore.items",
    "OpKind": "repro.kvstore.items",
    "Operation": "repro.kvstore.items",
    "Request": "repro.kvstore.items",
    "Response": "repro.kvstore.items",
    "NetworkModel": "repro.kvstore.network",
    "UniformLatencyNetwork": "repro.kvstore.network",
    "ConsistentHashRing": "repro.kvstore.partitioning",
    "ReplicaPlacement": "repro.kvstore.replication",
    "Server": "repro.kvstore.server",
    "ServiceModel": "repro.kvstore.service",
    "StorageEngine": "repro.kvstore.storage",
}

__all__ = sorted(_EXPORTS)

if TYPE_CHECKING:  # pragma: no cover - static imports for type checkers
    from repro.kvstore.client import Client
    from repro.kvstore.cluster import Cluster, RunResult, run_cluster
    from repro.kvstore.config import ClusterConfig, ServiceConfig, SimulationConfig
    from repro.kvstore.items import Feedback, OpKind, Operation, Request, Response
    from repro.kvstore.network import NetworkModel, UniformLatencyNetwork
    from repro.kvstore.partitioning import ConsistentHashRing
    from repro.kvstore.replication import ReplicaPlacement
    from repro.kvstore.server import Server
    from repro.kvstore.service import ServiceModel
    from repro.kvstore.storage import StorageEngine


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
