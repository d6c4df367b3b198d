#!/usr/bin/env python
"""Quickstart: compare FCFS, Rein-SBF, and DAS on one simulated cluster.

Builds a 16-server cluster at 0.8 offered load with the paper's baseline
workload (geometric fan-out, lognormal values, Zipf keys) and prints the
request-completion-time summary per scheduler.

Run:  python examples/quickstart.py
"""

from repro import ClusterConfig, ServiceConfig, SimulationConfig, run_cluster
from repro.workload import PoissonArrivals, workload
from repro.workload.requests import arrival_rate_for_load

N_SERVERS = 16
LOAD = 0.8
REQUESTS = 10_000


def main() -> None:
    pattern = workload("baseline")
    service = ServiceConfig()
    rate = arrival_rate_for_load(
        LOAD,
        pattern.fanout.mean(),
        service.mean_demand(pattern.sizes.mean()),
        N_SERVERS,
    )
    print(f"{N_SERVERS} servers, load {LOAD}, {REQUESTS} requests, "
          f"arrival rate {rate:.0f} req/s\n")
    print(f"{'scheduler':>10} {'mean':>9} {'p50':>9} {'p99':>9} {'p99.9':>9}")
    baseline_mean = None
    for scheduler in ("fcfs", "sbf", "das"):
        config = ClusterConfig(
            n_servers=N_SERVERS,
            seed=1,
            scheduler=scheduler,
            arrivals=PoissonArrivals(rate=rate),
            fanout=pattern.fanout,
            sizes=pattern.sizes,
            popularity=pattern.popularity,
            service=service,
        )
        result = run_cluster(config, SimulationConfig(max_requests=REQUESTS))
        s = result.summary()
        note = ""
        if scheduler == "fcfs":
            baseline_mean = s.mean
        elif baseline_mean:
            note = f"  ({(1 - s.mean / baseline_mean) * 100:+.1f}% mean vs FCFS)"
        print(
            f"{scheduler:>10} {s.mean * 1e3:8.3f}ms {s.p50 * 1e3:8.3f}ms "
            f"{s.p99 * 1e3:8.3f}ms {s.p999 * 1e3:8.3f}ms{note}"
        )


if __name__ == "__main__":
    main()
