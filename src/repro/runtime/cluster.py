"""In-process runtime cluster: N servers + a connected client.

For demos and integration tests::

    async with LocalCluster(n_servers=4, scheduler="das") as cluster:
        await cluster.client.put("k", b"v")
        values = await cluster.client.multiget(["k"])

Chaos scripting rides on the same harness:
``cluster.apply_fault_plan(FaultPlan((Pause(0, at=0.0, until=1.5),)))``
makes server 0 go dark for 1.5 s, ``cluster.faults`` (the
:class:`~repro.faults.plan.LinkFaults` every server consults) opens and
closes link-fault windows directly, ``cluster.crash(0)`` /
``cluster.restart(0)`` model a hard process death and recovery, and
``cluster.new_client(retry_policy=...)`` attaches extra clients (e.g. a
protected and an unprotected one side by side).
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional

from repro.errors import ConfigError
from repro.faults.plan import LinkFaults
from repro.faults.resilience import HedgePolicy
from repro.faults.runtime import RuntimeFaultDriver
from repro.obs import MetricsRegistry, Tracer
from repro.runtime.client import RuntimeClient
from repro.runtime.resilience import RetryPolicy
from repro.runtime.server import KVServer
from repro.selection import selection_policy_needs

#: Reporter cadence used when the selection policy wants load reports but
#: no explicit ``load_report_interval`` was given.  Kept below the dodoor
#: policy's default ``max_staleness`` (25 ms) so cached entries stay fresh.
DEFAULT_LOAD_REPORT_INTERVAL = 0.01


class LocalCluster:
    """Spin up servers on loopback ports and a client wired to them.

    One :class:`MetricsRegistry` is shared by every server and the
    client, so :meth:`metrics_snapshot` / :meth:`metrics_text` expose the
    whole cluster in a single scrape; one :class:`Tracer` collects
    sampled request traces (``trace_sample_rate=0`` disables tracing).
    """

    def __init__(
        self,
        n_servers: int = 4,
        scheduler: str = "das",
        scheduler_params: Optional[Dict[str, Any]] = None,
        byte_rate: Optional[float] = 100e6,
        per_op_overhead: float = 50e-6,
        retry_policy: Optional[RetryPolicy] = None,
        hedge_policy: Optional[HedgePolicy] = None,
        trace_sample_rate: float = 1 / 128,
        replication_factor: int = 1,
        selection: str = "primary",
        selection_params: Optional[Dict[str, Any]] = None,
        load_report_interval: Optional[float] = None,
    ):
        if n_servers < 1:
            raise ValueError("need at least one server")
        if load_report_interval is None and selection_policy_needs(
            selection
        ).load_reports:
            # Report-fed policies (dodoor) are useless without a reporter;
            # provision one at the default cadence rather than silently
            # degrading every pick to blind random.
            load_report_interval = DEFAULT_LOAD_REPORT_INTERVAL
        self.load_report_interval = load_report_interval
        self.registry = MetricsRegistry()
        self.tracer = Tracer(sample_rate=trace_sample_rate)
        self.servers = [
            KVServer(
                server_id=i,
                scheduler=scheduler,
                scheduler_params=scheduler_params,
                byte_rate=byte_rate,
                per_op_overhead=per_op_overhead,
                registry=self.registry,
                load_report_interval=load_report_interval,
            )
            for i in range(n_servers)
        ]
        self.faults = LinkFaults()
        for server in self.servers:
            server.faults = self.faults
        self._retry_policy = retry_policy
        self._hedge_policy = hedge_policy
        self._replication_factor = replication_factor
        self._selection = selection
        self._selection_params = selection_params
        self.client: Optional[RuntimeClient] = None
        self._extra_clients: List[RuntimeClient] = []
        self._fault_driver = None

    async def start(self) -> "LocalCluster":
        await asyncio.gather(*(s.start() for s in self.servers))
        self.client = RuntimeClient(
            endpoints=self.endpoints(),
            retry_policy=self._retry_policy,
            hedge_policy=self._hedge_policy,
            registry=self.registry,
            tracer=self.tracer if self.tracer.enabled else None,
            replication_factor=self._replication_factor,
            selection=self._selection,
            selection_params=self._selection_params,
        )
        await self.client.connect()
        return self

    async def stop(self) -> None:
        """Stop a running fault plan first, then every client and server.

        A fault plan that failed raises here, after the shutdown.
        """
        try:
            if self._fault_driver is not None:
                await self._fault_driver.stop()
        finally:
            for extra in self._extra_clients:
                await extra.close()
            self._extra_clients.clear()
            if self.client is not None:
                await self.client.close()
                self.client = None
            await asyncio.gather(*(s.stop() for s in self.servers))

    async def __aenter__(self) -> "LocalCluster":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Clients
    # ------------------------------------------------------------------
    def endpoints(self) -> List[tuple]:
        return [(s.host, s.port) for s in self.servers]

    async def new_client(self, **kwargs: Any) -> RuntimeClient:
        """Connect an extra client (closed automatically with the cluster)."""
        client = RuntimeClient(endpoints=self.endpoints(), **kwargs)
        await client.connect()
        self._extra_clients.append(client)
        return client

    # ------------------------------------------------------------------
    # Chaos controls
    # ------------------------------------------------------------------
    async def crash(self, server_id: int) -> None:
        """Hard-kill one server (connections severed, queue not drained)."""
        await self.servers[server_id].crash()

    async def restart(self, server_id: int) -> None:
        """Bring a crashed server back on its original port."""
        await self.servers[server_id].restart()

    def apply_fault_plan(self, plan, time_scale: float = 1.0):
        """Replay a declarative :class:`~repro.faults.plan.FaultPlan`.

        The same plan object the simulator accepts via
        ``ClusterConfig.fault_plan`` is applied here through crash/restart
        calls, :attr:`faults` and the servers' slowdown.  Returns the
        started :class:`~repro.faults.runtime.RuntimeFaultDriver`;
        ``await driver.wait()`` to block until the last event has been
        applied.  One plan runs at a time: while a previous one is still
        being applied this raises :class:`~repro.errors.ConfigError`.
        """
        if self._fault_driver is not None and not self._fault_driver.task.done():
            raise ConfigError("a fault plan is still being applied")
        plan.validate_for(len(self.servers), n_clients=1)
        self._fault_driver = RuntimeFaultDriver(self, plan, time_scale=time_scale)
        return self._fault_driver

    # ------------------------------------------------------------------
    async def preload(
        self, items: Dict[str, bytes], concurrency: int = 32
    ) -> None:
        """Write a batch of keys through the client, ``concurrency`` at a time.

        ``concurrency`` writers take the items in order from one iterator,
        so the batch costs that many tasks, not one per key.
        """
        if self.client is None:
            raise RuntimeError("cluster not started")
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        pending = iter(items.items())

        async def writer() -> None:
            for key, value in pending:
                await self.client.put(key, value)

        await asyncio.gather(*(writer() for _ in range(min(concurrency, len(items)))))

    def total_ops_executed(self) -> int:
        return sum(s.executor.ops_executed for s in self.servers)

    def stats(self) -> Dict[str, Any]:
        """Per-server and client counter snapshot for chaos-run reporting."""
        stats = {
            "servers": {s.server_id: s.stats() for s in self.servers},
            "client": self.client.stats() if self.client is not None else {},
        }
        if self._fault_driver is not None:
            stats["fault_plan"] = self._fault_driver.stats()
        return stats

    # ------------------------------------------------------------------
    # Observability export
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> Dict[str, Any]:
        """JSON-able snapshot of the shared registry plus trace summary.

        Callback gauges are evaluated now, so DAS gauges (``das_k``,
        band lengths, promotions/demotions) reflect queue-internal truth
        at the moment of the call.
        """
        return {
            "metrics": self.registry.snapshot(),
            "traces": self.tracer.as_dicts(),
            "trace_sampled": self.tracer.sampled,
        }

    def metrics_text(self) -> str:
        """Prometheus text exposition of the whole cluster's registry."""
        return self.registry.to_prometheus()
