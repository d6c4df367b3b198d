"""Every name the benchmark reports: workloads, metrics, units, bounds.

Pure data, no ``repro`` import, so the parent process, ``compare.py`` and
the tests can read it without paying the package's import time.  The
root ``BENCHMARK.json`` is :func:`benchmark_json` written out; a test
keeps the two equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: How long one ``run.py`` invocation measures (BENCHMARK.json ``run_seconds``).
RUN_SECONDS = 30


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a fixed amount of work, not a duration."""

    name: str
    #: Which driver runs it: ``sim`` | ``closed`` | ``open`` (see trials.py).
    runner: str
    #: Measured requests per trial (sim: includes the 10% warm-up window
    #: the RCT summary skips; rt: counted after the warm-up requests).
    requests: int
    #: Runtime warm-up requests issued before the measured section.
    warmup: int
    why: str

    @property
    def clock(self) -> str:
        """Clock of the ``rct_*`` metrics: ``simulated`` or ``wall``."""
        return "simulated" if self.runner == "sim" else "wall"


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "sim-cell-16", "sim", 20_000, 0,
            "The paper's 16-server DAS cell at load 0.7: kernel, client, server, "
            "estimator and DAS do the work; selection and the calendar queue are bypassed.",
        ),
        Workload(
            "sim-fleet-256", "sim", 12_000, 0,
            "The X5 fleet cell: 256 periodic reporters engage the calendar queue, dodoor "
            "selection, preference lists and control-plane broadcasts; set-up is 3x larger.",
        ),
        Workload(
            "rt-get-small", "closed", 4_000, 300,
            "Closed loop, 2 callers, 8 x 256 B keys per multiget over loopback TCP: "
            "message-count-bound (asyncio streams, framing, JSON), value encoding negligible.",
        ),
        Workload(
            "rt-mixed-open", "open", 1_000, 100,
            "Open loop at 400 req/s, 20% puts, 1 KiB and 16 KiB values: byte-bound "
            "(base64 + JSON), overlapping requests, so codec cost shows in the tail.",
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: End-to-end only: share of the parent's median the driver lets the
    #: metric worsen by.  One number for all workloads and for runs of
    #: *different* seeds on a shared machine whose speed drifts by 10-20%
    #: for minutes at a time, so it is sized on the widest spread seen
    #: (README, "Steadiness"); ``compare.py`` uses :func:`ledger_bound`.
    bound: float = 0.0


END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("requests_per_s", "1/s", "higher", 0.25),
    Metric("cpu_ms_per_req", "ms", "lower", 0.25),
    Metric("rct_mean_ms", "ms", "lower", 0.25),
    Metric("rct_p50_ms", "ms", "lower", 0.20),
    Metric("rct_p99_ms", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.10),
)

#: The ledger's eighth row.  Expected 0, so it cannot be a BENCHMARK.json
#: metric (those are never 0); ``run.py`` carries it as ``failed`` /
#: ``attempted`` instead.
FAILED_SHARE = Metric("failed_share", "fraction", "lower")


def ledger_bound(metric: str, clock: str, base: float) -> float:
    """Relative bound ``compare.py`` applies between two same-seed records.

    Tighter than the driver's: both sides ran the same seed, so simulated
    ``rct_*`` must repeat (1% only absorbs float formatting), and set-up
    gets an absolute floor of 0.05 s because a 0.07 s set-up moves 17%
    between identical runs.
    """
    if metric == "setup_s":
        return max(0.15, 0.05 / base) if base > 0 else 0.15
    if metric.startswith("rct_") and clock == "simulated":
        return 0.01
    return 0.10


#: ``failed_share`` may rise by this much, absolutely, before compare.py fails.
FAILED_SHARE_SLACK = 0.001

#: Profile layers, by defining module (see layers.py for the file mapping).
LAYERS: Tuple[str, ...] = (
    "sim.core", "sim.eventcore", "sim.rand", "workload",
    "kvstore.client", "kvstore.server", "kvstore.network", "kvstore.storage",
    "kvstore.replication", "kvstore.items",
    "core.estimator", "core.das", "core.feedback",
    "schedulers", "sharding", "selection", "faults", "metrics", "obs",
    "runtime.protocol", "runtime.client", "runtime.server", "runtime.scheduling",
    "asyncio", "other",
)

_STAGES = (
    Metric("S.encode_us_per_req", "us/req", "lower"),
    Metric("S.decode_us_per_req", "us/req", "lower"),
    Metric("S.value_codec_us_per_req", "us/req", "lower"),
    Metric("S.socket_write_us_per_req", "us/req", "lower"),
    Metric("S.queue_wait_us_p50", "us", "lower"),
    Metric("S.service_us_p50", "us", "lower"),
)

_COUNTERS = (
    Metric("C.kernel_events_per_req", "events/req", "lower"),
    Metric("C.net_msgs_per_req", "msgs/req", "lower"),
    Metric("C.control_msgs_per_req", "msgs/req", "lower"),
    Metric("C.timeout_pool_hit_rate", "share", "higher"),
    Metric("C.eventcore_bucket_resizes", "count", "lower"),
    Metric("C.server_utilization", "share", "lower"),
    Metric("C.das_mean_cut_vs_fcfs", "share", "higher"),
    Metric("C.wire_bytes_per_req", "bytes/req", "lower"),
    Metric("C.wire_msgs_per_req", "msgs/req", "lower"),
    Metric("C.executor_ops_per_req", "ops/req", "lower"),
    Metric("C.loop_busy_share", "share", "lower"),
    Metric("C.gen_late_p50_ms", "ms", "lower"),
    Metric("C.gen_late_p99_ms", "ms", "lower"),
    Metric("C.trace_overhead_x", "x", "lower"),
)

#: Per-layer metrics that come from the *timed* (unprofiled) trials; the
#: rest come from the traced trial.
TIMED_COUNTERS = ("C.loop_busy_share", "C.gen_late_p50_ms", "C.gen_late_p99_ms")

PER_LAYER: Tuple[Metric, ...] = (
    tuple(
        metric
        for layer in LAYERS
        for metric in (
            Metric(f"L.{layer}.self_us_per_req", "us/req", "lower"),
            Metric(f"L.{layer}.calls_per_req", "calls/req", "lower"),
        )
    )
    + _STAGES
    + _COUNTERS
)

UNITS: Dict[str, str] = {
    m.name: m.unit for m in END_TO_END + (FAILED_SHARE,) + PER_LAYER
}


def benchmark_json() -> dict:
    """The content of the root ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
