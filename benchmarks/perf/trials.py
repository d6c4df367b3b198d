"""One trial of one workload, run in the calling process.

``trial.py`` calls :func:`run_trial` in a fresh child process; the tests
call it directly at tiny sizes.  Every layer is measured from outside:
public constructors, public stats methods and, in a traced trial only,
cProfile around the measured section.
"""

from __future__ import annotations

import asyncio
import cProfile
import contextlib
import hashlib
import pstats
import random
import resource
import time
from types import SimpleNamespace
from typing import Any, Dict, Iterator, List, Optional, Sequence

import numpy as np

from benchmarks.perf import rtload, workloads as wl
from benchmarks.perf.layers import CALLS, CUMULATIVE, layer_metrics, total
from benchmarks.perf.spec import PER_LAYER, Workload

#: Only this workload also runs FCFS in its traced trial (the paper's claim).
PAPER_SHAPE_WORKLOAD = "sim-cell-16"


def run_trial(workload: Workload, seed: int, t0: float, traced: bool = False) -> Dict[str, Any]:
    """Run ``workload`` once and return its record.

    ``t0`` is ``time.perf_counter()`` at the first line of the trial
    driver, before ``repro`` was imported: ``setup_s`` counts from there.
    A traced trial profiles the measured section, so its end-to-end
    numbers are only good for ``C.trace_overhead_x``.
    """
    if workload.runner == "sim":
        record = _sim_trial(workload, seed, t0, traced)
    else:
        record = asyncio.run(_rt_trial(workload, seed, t0, traced))
    record.update(workload=workload.name, seed=seed, traced=traced)
    record["metrics"]["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    return record


def _record(
    *,
    setup_s: float,
    attempted: int,
    completed: int,
    failed: int,
    wall_s: float,
    cpu_s: float,
    rcts_s: Sequence[float],
    late_s: Sequence[float] = (),
    errors: List[str],
    sim_digest: Optional[str] = None,
    layers: Optional[Dict[str, float]] = None,
) -> Dict[str, Any]:
    if len(rcts_s) == 0:
        raise RuntimeError(f"no request completed: {errors}")
    p50, p99 = np.percentile(rcts_s, [50, 99]) * 1e3
    late_p50, late_p99 = np.percentile(late_s, [50, 99]) * 1e3 if len(late_s) else (0.0, 0.0)
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "sim_digest": sim_digest,
        "metrics": {
            "setup_s": setup_s,
            "requests_per_s": completed / wall_s,
            "cpu_ms_per_req": cpu_s / completed * 1e3,
            "rct_mean_ms": float(np.mean(rcts_s)) * 1e3,
            "rct_p50_ms": float(p50),
            "rct_p99_ms": float(p99),
        },
        # Per-layer metrics that only a timed (unprofiled) trial can give.
        "timed": {
            "C.loop_busy_share": cpu_s / wall_s,
            "C.gen_late_p50_ms": float(late_p50),
            "C.gen_late_p99_ms": float(late_p99),
        },
        "layers": layers,
    }


def _blank_layers(stats: Dict, requests: int, idle_s: float = 0.0) -> Dict[str, float]:
    """``L.*`` from the profile; ``S.*``/``C.*`` start at 0 = not applicable here
    (or, for those that need a timed trial, filled in by ``harness.per_layer``)."""
    layers = {metric.name: 0.0 for metric in PER_LAYER}
    layers.update(layer_metrics(stats, requests, idle_s))
    return layers


# ----------------------------------------------------------------------
# Simulator
# ----------------------------------------------------------------------
def _sim_trial(workload: Workload, seed: int, t0: float, traced: bool) -> Dict[str, Any]:
    from repro import Cluster, SimulationConfig

    n = workload.requests
    sim = SimulationConfig(max_requests=n, warmup_fraction=wl.SIM_WARMUP_FRACTION)
    cluster = Cluster(wl.sim_config(workload.name, seed))
    profiler = cProfile.Profile() if traced else None
    setup_s = time.perf_counter() - t0

    wall0, cpu0 = time.perf_counter(), time.process_time()
    result = profiler.runcall(cluster.run, sim) if profiler else cluster.run(sim)
    wall_s, cpu_s = time.perf_counter() - wall0, time.process_time() - cpu0

    errors = []
    if result.requests_sent != n or result.requests_completed != n:
        errors.append(
            f"sent {result.requests_sent}, completed {result.requests_completed} of {n}"
        )
    lost_ops = sum(result.server_ops_failed) + sum(result.server_ops_dropped)
    if lost_ops:
        errors.append(f"{lost_ops} operations failed or were dropped")
    failed = min(n, n - result.requests_completed + lost_ops)
    rcts = result.rcts()  # simulated seconds, post-warm-up

    layers = None
    if profiler is not None:
        stats = pstats.Stats(profiler).stats
        layers = _blank_layers(stats, n)
        control = sum(
            s["control_plane"]["messages_total"] for s in cluster.selection_stats().values()
        )
        layers.update(
            {
                "C.kernel_events_per_req": total(stats, "/sim/core.py", "_schedule", CALLS) / n,
                "C.net_msgs_per_req": cluster.network.messages_sent / n,
                "C.control_msgs_per_req": control / n,
                "C.timeout_pool_hit_rate": cluster.env.pool_stats()["timeout_pool_hit_rate"],
                "C.eventcore_bucket_resizes": float(cluster.env.core_stats()["bucket_resizes"]),
                "C.server_utilization": result.mean_utilization,
            }
        )
        if workload.name == PAPER_SHAPE_WORKLOAD:
            fcfs = Cluster(wl.sim_config(workload.name, seed, scheduler="fcfs")).run(sim)
            cut = 1.0 - float(np.mean(rcts)) / fcfs.mean_rct
            layers["C.das_mean_cut_vs_fcfs"] = cut
            if cut <= 0.0:
                errors.append(f"DAS mean RCT is not below FCFS (cut {cut:.4f})")

    record = _record(
        setup_s=setup_s, attempted=n, completed=result.requests_completed, failed=failed,
        wall_s=wall_s, cpu_s=cpu_s, rcts_s=rcts, errors=errors, layers=layers,
        sim_digest=hashlib.sha256(np.ascontiguousarray(rcts, dtype="<f8").tobytes()).hexdigest(),
    )
    record["event_core"] = cluster.env.engine
    return record


# ----------------------------------------------------------------------
# Runtime
# ----------------------------------------------------------------------
@contextlib.contextmanager
def _wire_tap() -> Iterator[SimpleNamespace]:
    """Count and size what ``Message.encode`` returns while installed."""
    from repro.runtime.protocol import Message

    tap = SimpleNamespace(messages=0, bytes=0)
    original = Message.encode

    def counted_encode(message) -> bytes:
        raw = original(message)
        tap.messages += 1
        tap.bytes += len(raw)
        return raw

    Message.encode = counted_encode
    try:
        yield tap
    finally:
        Message.encode = original


async def _rt_trial(workload: Workload, seed: int, t0: float, traced: bool) -> Dict[str, Any]:
    from repro.runtime import LocalCluster

    rng = random.Random(seed)
    keys = [f"key-{i:05d}" for i in range(wl.RT_KEYS)]
    if workload.runner == "closed":
        sizes = dict.fromkeys(keys, wl.CLOSED_VALUE_BYTES)
        drive = rtload.run_closed

        def plan(requests: int):
            return rtload.closed_plan(rng, keys, requests, wl.CLOSED_CALLERS, wl.CLOSED_FANOUT)
    else:
        large = set(rng.sample(keys, int(wl.OPEN_LARGE_SHARE * len(keys))))
        sizes = {k: wl.OPEN_LARGE_BYTES if k in large else wl.OPEN_SMALL_BYTES for k in keys}
        drive = rtload.run_open

        def plan(requests: int):
            return rtload.open_plan(
                rng, keys, requests, wl.OPEN_RATE, wl.OPEN_PUT_SHARE,
                wl.OPEN_FANOUT_MEAN, wl.OPEN_FANOUT_CAP,
            )
    values = {key: rtload.canonical_value(seed, key, size) for key, size in sizes.items()}
    warmup_plan, measured_plan = plan(workload.warmup), plan(workload.requests)

    # Full tracing only in the traced trial: replies then carry the
    # server's OpSpans.  Timed trials keep the library's default sampling.
    options = dict(wl.RT_CLUSTER, trace_sample_rate=1.0) if traced else wl.RT_CLUSTER
    profiler = cProfile.Profile() if traced else None
    async with LocalCluster(**options) as cluster:
        await cluster.preload(values)
        warmup = await drive(cluster.client, warmup_plan, values)
        ops_before = cluster.total_ops_executed()
        setup_s = time.perf_counter() - t0
        with contextlib.ExitStack() as tracing:
            if profiler is not None:
                tap = tracing.enter_context(_wire_tap())
                tracing.enter_context(profiler)
            out = await drive(cluster.client, measured_plan, values)
        executor_ops = cluster.total_ops_executed() - ops_before
        traces = cluster.tracer.traces

    errors = [e for e in (warmup.first_error, out.first_error) if e]
    layers = None
    if profiler is not None:
        n = out.attempted
        stats = pstats.Stats(profiler).stats
        spans = [span for trace in traces for span in trace.ops]
        queue_wait = [s.service_start - s.enqueue for s in spans]
        service = [s.service_end - s.service_start for s in spans]

        def cumulative_us(file_suffix: str, *names: str) -> float:
            return sum(total(stats, file_suffix, name, CUMULATIVE) for name in names) / n * 1e6

        protocol = "/runtime/protocol.py"
        layers = _blank_layers(stats, n, idle_s=out.wall_s - out.cpu_s)
        layers.update(
            {
                "S.encode_us_per_req": cumulative_us(protocol, "encode"),
                "S.decode_us_per_req": cumulative_us(protocol, "decode"),
                "S.value_codec_us_per_req": cumulative_us(protocol, "encode_value", "decode_value"),
                # write + drain: write_message minus the (tapped) encode inside it.
                "S.socket_write_us_per_req": cumulative_us(protocol, "write_message")
                - cumulative_us("/benchmarks/perf/trials.py", "counted_encode"),
                "S.queue_wait_us_p50": float(np.median(queue_wait)) * 1e6 if spans else 0.0,
                "S.service_us_p50": float(np.median(service)) * 1e6 if spans else 0.0,
                "C.wire_bytes_per_req": tap.bytes / n,
                "C.wire_msgs_per_req": tap.messages / n,
                "C.executor_ops_per_req": executor_ops / n,
            }
        )
    return _record(
        setup_s=setup_s, attempted=out.attempted, completed=len(out.rcts), failed=out.failed,
        wall_s=out.wall_s, cpu_s=out.cpu_s, rcts_s=out.rcts, late_s=out.late,
        errors=errors, layers=layers,
    )
