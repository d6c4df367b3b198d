"""Cluster assembly: build every component from a config and run it."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.estimator import ServerEstimates
from repro.core.feedback import FeedbackMode
from repro.errors import ConfigError, TraceFormatError
from repro.faults.sim import SimFaultDriver
from repro.kvstore.client import Client, KeyTable
from repro.kvstore.config import ClusterConfig, SimulationConfig
from repro.kvstore.network import UniformLatencyNetwork
from repro.kvstore.partitioning import ConsistentHashRing
from repro.kvstore.replication import ReplicaPlacement
from repro.kvstore.server import Server
from repro.kvstore.service import ServiceModel
from repro.metrics.collector import MetricsCollector
from repro.metrics.summary import SummaryStats
from repro.obs import MetricsRegistry, Tracer, register_queue_gauges
from repro.schedulers.registry import create_policy
from repro.selection import CONTROL_MESSAGE_KINDS, selection_policy_needs
from repro.sim.core import NORMAL, Environment, stop
from repro.sim.rand import RandomStreams
from repro.workload.popularity import PartitionedPopularity
from repro.workload.requests import (
    Keyspace,
    RequestFactory,
    RequestSpec,
    TraceReplayFactory,
)


@dataclass
class RunResult:
    """Outcome of one simulated run."""

    config: ClusterConfig
    sim: SimulationConfig
    collector: MetricsCollector
    warmup_time: float
    sim_time: float
    server_utilizations: List[float]
    requests_sent: int
    requests_completed: int
    #: Observability surfaces captured by the run (live objects; snapshot
    #: with ``registry.snapshot()`` / ``tracer.as_dicts()``).
    registry: Optional[MetricsRegistry] = None
    tracer: Optional[Tracer] = None
    #: Always zeros, one per server: a simulated op cannot fail.  Kept
    #: because ``benchmarks/perf/trials.py`` reads it.
    server_ops_failed: List[int] = field(default_factory=list)
    #: Per-server ops lost to crashes (indexed by server id).
    server_ops_dropped: List[int] = field(default_factory=list)
    #: Fault-plan timeline + fault-state snapshot ({} on healthy runs).
    faults: Dict[str, Any] = field(default_factory=dict)
    #: Per-server size-lane snapshot ({} unless the scheduler is laned).
    lanes: Dict[int, Dict[str, Any]] = field(default_factory=dict)

    def metrics_snapshot(self) -> Dict[str, Any]:
        """JSON-able registry + trace snapshot of the finished run."""
        return {
            "metrics": self.registry.snapshot() if self.registry else {},
            "traces": self.tracer.as_dicts() if self.tracer else [],
            "faults": self.faults,
            "lanes": self.lanes,
        }

    def summary(self) -> SummaryStats:
        """RCT summary over the steady-state window."""
        return self.collector.summary(self.warmup_time)

    @property
    def mean_rct(self) -> float:
        return self.collector.mean_rct(self.warmup_time)

    def rcts(self):
        return self.collector.rcts(self.warmup_time)

    def percentile(self, q: float) -> float:
        import numpy as np

        return float(np.percentile(self.rcts(), q))

    @property
    def mean_utilization(self) -> float:
        u = self.server_utilizations
        return sum(u) / len(u) if u else 0.0


class Cluster:
    """A fully wired simulated KV cluster.

    Build once per run (components hold simulation state); ``run`` executes
    the configured stopping rule and returns a :class:`RunResult`.
    """

    def __init__(
        self,
        config: ClusterConfig,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.config = config
        self.env = Environment()
        self.streams = RandomStreams(config.seed)
        self.metrics = MetricsCollector()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()

        self.keyspace = Keyspace(
            config.keyspace_size, config.sizes, self.streams.stream("keyspace")
        )
        self.ring = ConsistentHashRing(range(config.n_servers), vnodes=config.vnodes)

        jitter_rng = (
            self.streams.stream("network") if config.network_jitter_mean > 0 else None
        )
        self.network = UniformLatencyNetwork(
            self.env,
            base_delay=config.network_base_delay,
            jitter_mean=config.network_jitter_mean,
            rng=jitter_rng,
        )

        #: The reference service model converts value sizes to demands for
        #: clients; it never samples noise or degradation.
        self.reference_service = ServiceModel(
            per_op_overhead=config.service.per_op_overhead,
            byte_rate=config.service.byte_rate,
        )

        self.policy = create_policy(config.scheduler, **config.scheduler_params)
        self.servers: Dict[int, Server] = {}
        for sid in range(config.n_servers):
            self.servers[sid] = self._build_server(sid)
        self.key_table = self._build_key_table()

        #: Fault-plan driver (None on healthy runs): crashes/recovers
        #: servers and toggles link faults at the plan's times.
        self.fault_driver: Optional[SimFaultDriver] = None
        if config.fault_plan:
            self.fault_driver = SimFaultDriver(
                self.env,
                config.fault_plan,
                self.servers,
                self.network,
                registry=self.registry,
            )
        self._register_fault_gauges()

        self.clients: List[Client] = []
        #: True while a ``max_requests`` run waits for every client to
        #: drain; the last completion then schedules the run's stop.
        self._awaiting_drain = False
        for cid in range(config.n_clients):
            self.clients.append(self._build_client(cid))
        for server in self.servers.values():
            for client in self.clients:
                server.connect(client)

        # One periodic broadcaster covers both delivery styles: A2's
        # PERIODIC feedback mode and the Dodoor-style load reporter (a
        # policy that declares wants_load_reports gets reports even in
        # piggyback mode; an explicit load_report_interval overrides the
        # cadence either way).
        wants_reports = any(
            c.placement.wants_feedback and c.placement.policy.wants_load_reports
            for c in self.clients
        )
        if (
            config.feedback.periodic
            or config.load_report_interval is not None
            or wants_reports
        ):
            interval = (
                config.load_report_interval
                if config.load_report_interval is not None
                else config.feedback.interval
            )
            self._start_periodic_feedback(interval)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _build_server(self, sid: int) -> Server:
        cfg = self.config
        base_speed = cfg.server_speeds[sid] if cfg.server_speeds is not None else 1.0
        noise_rng = (
            self.streams.stream(f"service/{sid}") if cfg.service.noise_cv > 0 else None
        )
        service = ServiceModel(
            per_op_overhead=cfg.service.per_op_overhead,
            byte_rate=cfg.service.byte_rate,
            base_speed=base_speed,
            # SlowNode windows are exact service-speed steps.
            speed_steps=cfg.fault_plan.slow_windows(sid),
            noise_cv=cfg.service.noise_cv,
            rng=noise_rng,
        )
        queue = self.policy.make_queue()
        register_queue_gauges(self.registry, queue, sid)
        return Server(
            env=self.env,
            server_id=sid,
            queue=queue,
            service=service,
            network=self.network,
            piggyback_feedback=cfg.feedback.piggyback,
        )

    def _build_key_table(self) -> KeyTable:
        """The one key table every client reads, and the trace-key check.

        Each key's replica list is the ring's walk for it, taken once
        here through the ring's per-slot cache; no request looks a key up
        on the ring, so nothing is cached per key.  A trace must name
        only keyspace keys.
        """
        keyspace = self.keyspace
        names = keyspace.key_names(range(keyspace.size))
        index = None
        trace = self.config.trace
        if trace is not None:
            index = {key: i for i, key in enumerate(names)}
            for number, record in enumerate(trace):
                for key in record.keys:
                    if key not in index:
                        raise TraceFormatError(
                            f"trace record {number}: key {key!r} is not in the "
                            f"{len(names)}-key keyspace (see remap_keys)"
                        )
        return KeyTable(
            names,
            keyspace.value_sizes.tolist(),
            self.ring.preference_lists(names, self.config.replication_factor),
            self.reference_service,
            index,
        )

    def _build_client(self, cid: int) -> Client:
        cfg = self.config
        if cfg.trace is not None:
            factory = TraceReplayFactory(
                cfg.trace, start=cid, stride=cfg.n_clients
            )
        else:
            popularity = cfg.popularity
            if cfg.tenants > 1:
                # Multi-tenant key spaces: confine this client's law to
                # its tenant's disjoint slice of the keyspace.
                popularity = PartitionedPopularity(
                    inner=cfg.popularity,
                    tenant=cid % cfg.tenants,
                    tenants=cfg.tenants,
                )
            spec = RequestSpec(
                arrivals=cfg.arrivals.scaled(1.0 / cfg.n_clients),
                fanout=cfg.fanout,
                popularity=popularity,
                put_fraction=cfg.put_fraction,
            )
            factory = RequestFactory(
                spec,
                self.keyspace,
                rng_arrivals=self.streams.stream(f"arrivals/{cid}"),
                rng_fanout=self.streams.stream(f"fanout/{cid}"),
                rng_keys=self.streams.stream(f"keys/{cid}"),
                rng_kind=(
                    self.streams.stream(f"kind/{cid}") if cfg.put_fraction > 0 else None
                ),
            )
        estimates = None
        if cfg.feedback.mode is not FeedbackMode.NONE:
            estimates = ServerEstimates(**cfg.estimator_params)
        needs = selection_policy_needs(cfg.replica_selection)
        selection_rng = (
            self.streams.stream(f"replica/{cid}") if needs.rng else None
        )
        if needs.estimates and estimates is None:
            raise ConfigError(
                f"{cfg.replica_selection} replica selection requires feedback"
            )
        placement = ReplicaPlacement(
            self.ring,
            replication_factor=cfg.replication_factor,
            selection=cfg.replica_selection,
            rng=selection_rng,
            estimates=estimates,
            selection_params=cfg.replica_selection_params,
        )
        if placement.policy.name != "primary" and cfg.replication_factor > 1:
            self.registry.gauge(
                "client_selection_decisions",
                "Read-replica selections made by this client's policy",
                fn=lambda p=placement.policy: float(p.decisions),
                client=str(cid),
                policy=placement.policy.name,
            )
            for kind in CONTROL_MESSAGE_KINDS:
                self.registry.gauge(
                    "client_control_messages",
                    "Control-plane messages attributed to replica selection",
                    fn=lambda p=placement.policy, k=kind: float(
                        p.control_messages[k]
                    ),
                    client=str(cid),
                    policy=placement.policy.name,
                    kind=kind,
                )
                self.registry.gauge(
                    "client_control_bytes",
                    "Control-plane payload bytes attributed to replica selection",
                    fn=lambda p=placement.policy, k=kind: float(
                        p.control_bytes[k]
                    ),
                    client=str(cid),
                    policy=placement.policy.name,
                    kind=kind,
                )
        # Request ids are partitioned per client so they are globally unique.
        return Client(
            env=self.env,
            client_id=cid,
            factory=factory,
            placement=placement,
            tagger=self.policy.make_tagger(),
            estimates=estimates,
            network=self.network,
            servers=self.servers,
            metrics=self.metrics,
            keys=self.key_table,
            request_id_base=cid * 1_000_000_000,
            on_finished=self._check_drained,
            op_timeout=cfg.op_timeout,
            max_retries=cfg.max_retries,
            tracer=self.tracer if self.tracer.enabled else None,
            hedge=cfg.hedge,
            failure_detector=cfg.failure_detector,
            fault_state=(
                self.fault_driver.active_kinds
                if self.fault_driver is not None
                else None
            ),
            closed_loop=cfg.closed_loop,
            closed_concurrency=cfg.closed_concurrency,
            probes_per_request=cfg.probes_per_request,
        )

    def _start_periodic_feedback(self, interval: float) -> None:
        self._report_interval = interval
        #: Reporter entries on the heap: one timer per live broadcaster,
        #: plus the report deliveries in flight.
        self._reporters = len(self.servers)
        self._reports_in_flight = 0
        for server in self.servers.values():
            self.env._schedule(self._arm_report, server)

    def _arm_report(self, server: Server) -> None:
        self.env._schedule(self._broadcast, server, self._report_interval, NORMAL)

    def _broadcast(self, server: Server) -> None:
        """Send ``server``'s feedback snapshot to every client, then re-arm."""
        if self._reporters_idle():
            return
        # A dead server gossips nothing; clients keep their last (stale)
        # view until the failure detector marks it.
        if not server.crashed:
            feedback = server.make_feedback()
            for client in self.clients:
                delay = self.network.send(
                    ("server", server.server_id),
                    ("client", client.client_id),
                    (client, feedback),
                    self._receive_report,
                )
                if delay != float("inf"):  # not dropped by a link fault
                    self._reports_in_flight += 1
        self._arm_report(server)

    def _receive_report(self, arg: tuple) -> None:
        self._reports_in_flight -= 1
        client, feedback = arg
        client.receive_feedback(feedback)

    def _reporters_idle(self) -> bool:
        """At a broadcaster's firing: should it stop for good?

        Yes when nothing but reporter entries is pending.  Then no arrival
        is due and no operation, timer or fault is in flight, so no request
        can complete any more, and a report changes nothing that could.
        Without this the reporters would keep an undrainable
        ``max_requests`` run alive forever; once they have all retired the
        heap runs dry and :meth:`run` says how many requests were lost.
        """
        others = self._reporters - 1 + self._reports_in_flight
        if len(self.env._queue) > others:
            return False
        self._reporters -= 1
        return True

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _register_fault_gauges(self) -> None:
        """Expose per-server loss counters and network drops."""
        for sid, server in self.servers.items():
            self.registry.gauge(
                "server_ops_dropped",
                "Operations lost to crashes (queued, in-service, or refused)",
                fn=lambda s=server: float(s.ops_dropped),
                server=str(sid),
            )
        self.registry.gauge(
            "network_messages_dropped",
            "Messages dropped by active link faults (partition or loss)",
            fn=lambda n=self.network: float(n.messages_dropped),
        )

    def fault_stats(self) -> Dict[str, Any]:
        """Fault timeline + loss accounting, {} when no plan is configured.

        Shaped like :meth:`selection_stats`: a JSON-able snapshot suitable
        for run artifacts and the sim/runtime parity test.
        """
        if self.fault_driver is None:
            return {}
        stats = self.fault_driver.stats()
        stats["servers"] = {
            sid: {
                "crashed": server.crashed,
                "crashes": server.crashes,
                "ops_dropped": server.ops_dropped,
            }
            for sid, server in self.servers.items()
        }
        stats["clients"] = {
            client.client_id: {
                "timeouts_observed": client.timeouts_observed,
                "retries_sent": client.retries_sent,
                "hedges_sent": client.hedges_sent,
                "hedges_won": client.hedges_won,
                "breaker_opens": client.breaker_opens,
                "timers_cancelled": client.timers_cancelled,
            }
            for client in self.clients
        }
        return stats

    def selection_stats(self) -> Dict[int, Dict[str, Any]]:
        """Per-client replica-selection summary (policy, picks, probes)."""
        return {
            client.client_id: client.placement.policy.stats()
            for client in self.clients
        }

    def lane_stats(self) -> Dict[int, Dict[str, Any]]:
        """Per-server size-lane summary, {} unless the scheduler is laned."""
        stats: Dict[int, Dict[str, Any]] = {}
        for sid, server in self.servers.items():
            queue = server.queue
            lanes = getattr(queue, "lanes", None)
            if lanes is None:
                continue
            stats[sid] = {
                "cutoff": queue.cutoff,
                "cutoff_updates": queue.cutoff_estimator.updates,
                "lanes": {
                    lane: {
                        "share": queue.share(lane),
                        "routed": queue.routed[lane],
                        "served": queue.served[lane],
                        "consumed_demand": queue.consumed[lane],
                        "busy_time": server.lane_busy_time.get(lane, 0.0),
                        "queued": queue.lane_length(lane),
                    }
                    for lane in lanes
                },
            }
        return stats

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _check_drained(self, client: Client) -> None:
        # Only the client that just finished can have newly drained: test
        # it before sweeping the rest.
        if (
            self._awaiting_drain
            and client.drained
            and all(c.drained for c in self.clients)
        ):
            self._awaiting_drain = False
            self.env._schedule(stop, None)

    def run(self, sim: SimulationConfig) -> RunResult:
        """Execute the configured stopping rule and summarize."""
        if sim.max_requests is not None:
            per_client = sim.max_requests // len(self.clients)
            extra = sim.max_requests % len(self.clients)
            for i, client in enumerate(self.clients):
                client.max_requests = per_client + (1 if i < extra else 0)
            self._awaiting_drain = True
            self.env.run()
            if self._awaiting_drain:
                sent = sum(c.requests_sent for c in self.clients)
                lost = sent - sum(c.requests_completed for c in self.clients)
                raise RuntimeError(
                    f"the simulation ran out of events with {lost} of {sent} "
                    "requests never completed"
                )
            warmup_time = self.metrics.warmup_time_for_fraction(sim.warmup_fraction)
        else:
            for client in self.clients:
                client.end_time = sim.duration
            self.env.run(until=sim.duration)
            warmup_time = sim.warmup_fraction * sim.duration
        elapsed = max(self.env.now, 1e-12)
        return RunResult(
            config=self.config,
            sim=sim,
            collector=self.metrics,
            warmup_time=warmup_time,
            sim_time=self.env.now,
            server_utilizations=[
                s.utilization(elapsed) for s in self.servers.values()
            ],
            requests_sent=sum(c.requests_sent for c in self.clients),
            requests_completed=sum(c.requests_completed for c in self.clients),
            registry=self.registry,
            tracer=self.tracer,
            server_ops_failed=[0] * len(self.servers),
            server_ops_dropped=[s.ops_dropped for s in self.servers.values()],
            faults=self.fault_stats(),
            lanes=self.lane_stats(),
        )


def run_cluster(config: ClusterConfig, sim: SimulationConfig) -> RunResult:
    """Convenience one-shot: build a cluster and run it."""
    return Cluster(config).run(sim)
