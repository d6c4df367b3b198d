#!/usr/bin/env python
"""Server degradation: DAS routes around slow servers, SBF cannot.

Two of sixteen servers drop to 50% speed mid-run.  DAS's piggybacked
rate feedback inflates the remaining-processing-time of every request
touching the slow servers, so their operations are served later and the
healthy-only requests sail through; static policies (FCFS, Rein-SBF)
cannot tell a slow server from a fast one.

Run:  python examples/degraded_servers.py
"""

from repro import ClusterConfig, ServiceConfig, SimulationConfig
from repro.faults import FaultPlan, SlowNode
from repro.kvstore.cluster import Cluster
from repro.workload import PoissonArrivals, workload
from repro.workload.requests import arrival_rate_for_load

N_SERVERS = 16
LOAD = 0.55
DURATION = 3.0
DEGRADED = (0, 1)
ONSET = 0.75  # seconds


def main() -> None:
    pattern = workload("baseline")
    service = ServiceConfig()
    rate = arrival_rate_for_load(
        LOAD, pattern.fanout.mean(), service.mean_demand(pattern.sizes.mean()),
        N_SERVERS,
    )
    # Half speed from ONSET to the end of the run.
    slowdown = FaultPlan(
        tuple(SlowNode(sid, at=ONSET, until=DURATION, factor=0.5) for sid in DEGRADED)
    )
    print(
        f"{N_SERVERS} servers at load {LOAD}; servers {DEGRADED} drop to 50% "
        f"speed at t={ONSET}s\n"
    )
    for scheduler in ("fcfs", "sbf", "das"):
        config = ClusterConfig(
            n_servers=N_SERVERS,
            seed=11,
            scheduler=scheduler,
            arrivals=PoissonArrivals(rate=rate),
            fanout=pattern.fanout,
            sizes=pattern.sizes,
            popularity=pattern.popularity,
            service=service,
            fault_plan=slowdown,
        )
        cluster = Cluster(config)
        result = cluster.run(
            SimulationConfig(duration=DURATION, warmup_fraction=0.1)
        )
        s = result.summary()
        degraded_util = [result.server_utilizations[sid] for sid in DEGRADED]
        print(
            f"  {scheduler:>5} mean {s.mean * 1e3:7.3f}ms  p99 "
            f"{s.p99 * 1e3:8.3f}ms  degraded-server util "
            f"{', '.join(f'{u:.2f}' for u in degraded_util)}"
        )
        if scheduler == "das":
            # Peek at what the first client learned about server speeds.
            estimates = cluster.clients[0].estimates
            rates = {sid: estimates.rate(sid) for sid in (0, 1, 2, 3)}
            print(
                "        DAS client rate estimates: "
                + ", ".join(f"s{sid}={r:.2f}" for sid, r in rates.items())
                + "   (degraded servers correctly seen near 0.5)"
            )


if __name__ == "__main__":
    main()
