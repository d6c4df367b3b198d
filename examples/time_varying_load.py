#!/usr/bin/env python
"""Time-varying load: watch schedulers ride a load spike.

Drives the cluster with a Markov-modulated arrival process alternating
between 0.4 and 0.95 offered load (the paper's adaptivity scenario) and
prints a per-100ms-window timeline of mean RCT for each scheduler, plus
the aggregate comparison.

Run:  python examples/time_varying_load.py
"""

from repro import ClusterConfig, ServiceConfig, SimulationConfig
from repro.kvstore.cluster import Cluster
from repro.metrics.timeseries import WindowedSeries
from repro.workload import BimodalFanout, MMPPArrivals, workload
from repro.workload.requests import arrival_rate_for_load

N_SERVERS = 16
DURATION = 3.0
WINDOW = 0.1


def sparkline(values, lo, hi) -> str:
    blocks = " _.-=+*#%@"
    span = max(hi - lo, 1e-12)
    return "".join(
        blocks[min(len(blocks) - 1, int((v - lo) / span * (len(blocks) - 1)))]
        for v in values
    )


def main() -> None:
    base = workload("baseline")
    fanout = BimodalFanout(small=2, large=32, p_large=0.1)
    service = ServiceConfig()
    mean_demand = service.mean_demand(base.sizes.mean())
    r_low = arrival_rate_for_load(0.4, fanout.mean(), mean_demand, N_SERVERS)
    r_high = arrival_rate_for_load(0.95, fanout.mean(), mean_demand, N_SERVERS)
    arrivals = MMPPArrivals(rates=(r_low, r_high), dwell_means=(0.3, 0.3))
    print(f"MMPP load 0.4 <-> 0.95 (dwell 0.3s), {DURATION}s, {N_SERVERS} servers\n")

    timelines = {}
    for scheduler in ("fcfs", "sbf", "das"):
        config = ClusterConfig(
            n_servers=N_SERVERS,
            seed=3,
            scheduler=scheduler,
            arrivals=arrivals,
            fanout=fanout,
            sizes=base.sizes,
            popularity=base.popularity,
            service=service,
        )
        cluster = Cluster(config)
        result = cluster.run(SimulationConfig(duration=DURATION, warmup_fraction=0.0))
        series = WindowedSeries(WINDOW)
        for record in result.collector.records:
            series.add(record.completion_time, record.rct)
        timelines[scheduler] = (series.means(), result.summary())

    all_means = [m for means, _ in timelines.values() for m in means]
    lo, hi = min(all_means), max(all_means)
    print(f"mean RCT per {WINDOW * 1e3:.0f}ms window "
          f"(scale {lo * 1e3:.2f}..{hi * 1e3:.2f} ms):")
    for scheduler, (means, _) in timelines.items():
        print(f"  {scheduler:>5} |{sparkline(means, lo, hi)}|")
    print("\naggregate:")
    for scheduler, (_, summary) in timelines.items():
        print(
            f"  {scheduler:>5} mean {summary.mean * 1e3:7.3f}ms   "
            f"p99 {summary.p99 * 1e3:8.3f}ms   worst-window "
            f"{max(timelines[scheduler][0]) * 1e3:7.2f}ms"
        )


if __name__ == "__main__":
    main()
