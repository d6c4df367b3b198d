"""repro — DAS: Distributed Adaptive Scheduler for multiget key-value stores.

A full reproduction of *"Cutting the Request Completion Time in Key-value
Stores with Distributed Adaptive Scheduler"* (Jiang et al., ICDCS 2021):
the DAS scheduler, the Rein-SBF and FCFS baselines, a discrete-event
simulated KV cluster to evaluate them on, the paper's experiment suite,
and an asyncio runtime demonstrating the same schedulers outside the
simulator.

Quickstart
----------
>>> from repro import ClusterConfig, SimulationConfig, run_cluster
>>> from repro.workload import PoissonArrivals
>>> cfg = ClusterConfig(n_servers=8, scheduler="das",
...                     arrivals=PoissonArrivals(rate=2000.0))
>>> result = run_cluster(cfg, SimulationConfig(max_requests=2000))
>>> result.mean_rct > 0
True
"""

from repro._version import __version__
from repro.core import DasPolicy, ServerEstimates
from repro.core.feedback import FeedbackConfig, FeedbackMode
from repro.kvstore.cluster import Cluster, RunResult, run_cluster
from repro.kvstore.config import ClusterConfig, ServiceConfig, SimulationConfig
from repro.metrics.collector import MetricsCollector
from repro.metrics.summary import SummaryStats
from repro.schedulers import available_schedulers, create_policy

__all__ = [
    "Cluster",
    "ClusterConfig",
    "DasPolicy",
    "FeedbackConfig",
    "FeedbackMode",
    "MetricsCollector",
    "RunResult",
    "ServerEstimates",
    "ServiceConfig",
    "SimulationConfig",
    "SummaryStats",
    "__version__",
    "available_schedulers",
    "create_policy",
    "run_cluster",
]
