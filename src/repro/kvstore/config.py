"""Declarative configuration for a simulated cluster run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.core.feedback import FeedbackConfig
from repro.errors import ConfigError
from repro.faults.plan import FaultPlan
from repro.faults.resilience import FailureDetectorConfig, HedgePolicy
from repro.workload.arrivals import ArrivalSpec, PoissonArrivals
from repro.workload.fanout import FanoutSpec, GeometricFanout
from repro.workload.popularity import PopularitySpec, ZipfPopularity
from repro.workload.sizes import LognormalSize, SizeSpec


@dataclass(frozen=True)
class ServiceConfig:
    """Per-operation service cost parameters (shared by all servers).

    Defaults give a mean demand of ~130 microseconds for ~1.7 KiB values —
    a deliberately "fat" operation so simulations need fewer events per
    simulated second; scheduler comparisons are invariant to this scale.
    """

    per_op_overhead: float = 100e-6
    byte_rate: float = 50e6
    noise_cv: float = 0.1

    def __post_init__(self):
        if self.per_op_overhead < 0:
            raise ConfigError("per_op_overhead must be >= 0")
        if self.byte_rate <= 0:
            raise ConfigError("byte_rate must be positive")
        if self.noise_cv < 0:
            raise ConfigError("noise_cv must be >= 0")

    def mean_demand(self, mean_value_size: float) -> float:
        """Reference-server demand of an average operation."""
        return self.per_op_overhead + mean_value_size / self.byte_rate


@dataclass(frozen=True)
class ClusterConfig:
    """Everything needed to build a reproducible simulated cluster."""

    n_servers: int = 20
    n_clients: int = 4
    seed: int = 1

    scheduler: str = "das"
    scheduler_params: Dict[str, Any] = field(default_factory=dict)

    keyspace_size: int = 20_000
    arrivals: ArrivalSpec = field(default_factory=lambda: PoissonArrivals(rate=1000.0))
    fanout: FanoutSpec = field(default_factory=lambda: GeometricFanout(mean_target=5.0))
    sizes: SizeSpec = field(default_factory=lambda: LognormalSize(median=1024.0, sigma=1.0, cap=1 << 18))
    popularity: PopularitySpec = field(default_factory=lambda: ZipfPopularity(s=0.99))
    put_fraction: float = 0.0

    service: ServiceConfig = field(default_factory=ServiceConfig)
    #: Static heterogeneity: per-server nominal speed; None = all 1.0.
    server_speeds: Optional[Tuple[float, ...]] = None

    network_base_delay: float = 50e-6
    network_jitter_mean: float = 0.0

    replication_factor: int = 1
    replica_selection: str = "primary"
    #: Knobs forwarded to the selection-policy constructor (see
    #: docs/selection.md for each policy's parameters).
    replica_selection_params: Dict[str, Any] = field(default_factory=dict)
    vnodes: int = 64

    feedback: FeedbackConfig = field(default_factory=FeedbackConfig)
    #: ServerEstimates knobs for feedback-driven policies.
    estimator_params: Dict[str, Any] = field(default_factory=dict)
    #: Refresh interval of the asynchronous load reporter (Dodoor-style):
    #: every server broadcasts a load report to every client this often.
    #: None = start a reporter at the feedback interval only when the
    #: selection policy asks for load reports (``wants_load_reports``).
    load_report_interval: Optional[float] = None
    #: Dedicated probe round-trips fired per dispatched request by
    #: probe-driven selection policies (prequal).  0 keeps the sim's
    #: historical free-piggyback behaviour; X5 sets it so probing pays
    #: its real control-plane cost.
    probes_per_request: int = 0
    #: Multi-tenant key spaces: split the keyspace into this many
    #: disjoint partitions; client ``cid`` draws keys only from slice
    #: ``cid % tenants``.
    tenants: int = 1
    #: When set, clients replay these TraceRecords (round-robin) instead of
    #: sampling from arrivals/fanout/popularity.
    trace: Optional[Tuple[Any, ...]] = None
    #: Declarative workload: a registry name ("mmpp-burst") or a spec-file
    #: path ("path/to/spec.toml").  Resolved at construction time — the
    #: spec overwrites arrivals/fanout/sizes/popularity/put_fraction (and
    #: trace/keyspace_size/closed_loop where the spec says so), so the
    #: resolved fields land in this config's repr and therefore in the
    #: parallel engine's cell fingerprint.  See docs/workloads.md.
    workload: Optional[str] = None
    #: Content hash of the resolved workload spec; set during resolution
    #: so checkpoint fingerprints change when a named spec's file changes.
    workload_fingerprint: Optional[str] = None
    #: Closed-loop generation: each client keeps ``closed_concurrency``
    #: requests in flight instead of following the arrival clock.
    closed_loop: bool = False
    closed_concurrency: int = 4

    #: Client-side operation timeout; a timed-out operation is retried on
    #: the next replica (requires replication_factor > 1 to change server).
    op_timeout: Optional[float] = None
    #: Retries per operation after the original send (0 = no retries).
    max_retries: int = 0
    #: Declarative fault plan — the one way to script faults: crashes,
    #: pauses, partitions, loss, delay spikes and slow nodes, which the
    #: cluster wires into servers and the network model.
    fault_plan: FaultPlan = field(default_factory=FaultPlan)
    #: Tail hedging: duplicate slow GETs onto a second replica.
    hedge: Optional[HedgePolicy] = None
    #: Per-server failure detector / circuit breaker; requires op_timeout
    #: (the detector is driven by observed op timeouts).
    failure_detector: Optional[FailureDetectorConfig] = None

    def __post_init__(self):
        if self.workload is not None:
            self._resolve_workload()
        if self.n_servers < 1:
            raise ConfigError("n_servers must be >= 1")
        if self.n_clients < 1:
            raise ConfigError("n_clients must be >= 1")
        if self.keyspace_size < 1:
            raise ConfigError("keyspace_size must be >= 1")
        if not 0.0 <= self.put_fraction <= 1.0:
            raise ConfigError("put_fraction must be in [0, 1]")
        if self.server_speeds is not None and len(self.server_speeds) != self.n_servers:
            raise ConfigError(
                f"server_speeds has {len(self.server_speeds)} entries for "
                f"{self.n_servers} servers"
            )
        if self.server_speeds is not None and any(s <= 0 for s in self.server_speeds):
            raise ConfigError("all server speeds must be positive")
        if self.op_timeout is not None and self.op_timeout <= 0:
            raise ConfigError("op_timeout must be positive")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.max_retries > 0 and self.op_timeout is None:
            raise ConfigError("max_retries > 0 requires op_timeout")
        if self.replication_factor > self.n_servers:
            raise ConfigError("replication_factor exceeds n_servers")
        if self.fault_plan:
            self.fault_plan.validate_for(self.n_servers, self.n_clients)
        if self.failure_detector is not None and self.op_timeout is None:
            raise ConfigError("failure_detector requires op_timeout")
        if self.closed_concurrency < 1:
            raise ConfigError("closed_concurrency must be >= 1")
        if self.load_report_interval is not None and self.load_report_interval <= 0:
            raise ConfigError("load_report_interval must be positive")
        if self.probes_per_request < 0:
            raise ConfigError("probes_per_request must be >= 0")
        if self.tenants < 1:
            raise ConfigError("tenants must be >= 1")
        if self.tenants > self.keyspace_size:
            raise ConfigError(
                f"tenants ({self.tenants}) exceeds keyspace_size "
                f"({self.keyspace_size})"
            )
        if self.trace is None and self.tenants > 1:
            # Each client draws its distinct keys from one tenant slice.
            span = self.keyspace_size // self.tenants
            cap = self.fanout.max_fanout()
            if cap > span:
                raise ConfigError(
                    f"tenant slice of {span} keys (keyspace_size "
                    f"{self.keyspace_size} / tenants {self.tenants}) is "
                    f"smaller than the fan-out cap {cap}"
                )
        # Validate the policy name at config time rather than deep inside
        # cluster assembly.  Imported here to keep the config module free
        # of a hard dependency for type checking.
        from repro.selection import selection_policy_needs

        selection_policy_needs(self.replica_selection)
        if self.network_base_delay < 0 or self.network_jitter_mean < 0:
            raise ConfigError("network delays must be >= 0")

    def _resolve_workload(self) -> None:
        """Materialize a declarative workload spec into this config.

        Runs first in ``__post_init__`` so the resolved generator fields
        go through the same validation as hand-built configs.  Imported
        lazily: the registry needs the workload package but configs must
        stay importable without touching spec files.
        """
        from repro.workload.registry import resolve_workload

        spec = resolve_workload(self.workload)
        overrides = spec.config_overrides(
            n_servers=self.n_servers,
            service=self.service,
            mean_speed=self.mean_speed(),
            default_keyspace=self.keyspace_size,
        )
        for name, value in overrides.items():
            object.__setattr__(self, name, value)
        object.__setattr__(self, "workload_fingerprint", spec.fingerprint())

    def mean_speed(self) -> float:
        if self.server_speeds is None:
            return 1.0
        return sum(self.server_speeds) / len(self.server_speeds)


@dataclass(frozen=True)
class SimulationConfig:
    """How long to run and what to measure.

    Exactly one stopping rule applies: when ``max_requests`` is set the
    run ends once that many requests have been generated *and* completed;
    otherwise the clock stops at ``duration`` seconds.
    """

    duration: Optional[float] = None
    max_requests: Optional[int] = None
    warmup_fraction: float = 0.1

    def __post_init__(self):
        if (self.duration is None) == (self.max_requests is None):
            raise ConfigError("set exactly one of duration / max_requests")
        if self.duration is not None and self.duration <= 0:
            raise ConfigError("duration must be positive")
        if self.max_requests is not None and self.max_requests < 1:
            raise ConfigError("max_requests must be >= 1")
        if not 0 <= self.warmup_fraction < 1:
            raise ConfigError("warmup_fraction must be in [0, 1)")
