"""Golden decision digests for the simulated cluster's driving loops.

Each cell is small (<= 400 requests) and between them they walk every
self-re-arming loop of the model — client arrivals (open and closed
loop, request-count and duration stop rules), the server's service
loop (pause windows, crash/recover, slow-node speed steps), the
periodic feedback broadcaster and the fault-plan driver — including
the paths the benchmark cells skip: per-message jitter, per-op timeout
and hedge timers, link faults on messages in flight.  The digests were
recorded once; a change that moves any of them changed a scheduling
decision or an event's firing order, not just the code's shape.
"""

import hashlib

import numpy as np
import pytest

from repro import ClusterConfig, ServiceConfig, SimulationConfig, run_cluster
from repro.core.feedback import FeedbackConfig, FeedbackMode
from repro.faults.plan import (
    Crash,
    DelaySpike,
    FaultPlan,
    PacketLoss,
    Partition,
    Pause,
    Recover,
    SlowNode,
)
from repro.faults.resilience import HedgePolicy
from repro.kvstore.cluster import Cluster
from repro.workload import GeometricFanout, PoissonArrivals
from repro.workload.popularity import UniformPopularity
from repro.workload.requests import arrival_rate_for_load
from repro.workload.sizes import LognormalSize


def cell(**overrides) -> ClusterConfig:
    """Four servers, two clients, load 0.7, DAS unless overridden."""
    service = ServiceConfig()
    fanout = GeometricFanout(mean_target=4.0, cap=16)
    sizes = LognormalSize(median=1024.0, sigma=1.0, cap=1 << 16)
    rate = arrival_rate_for_load(
        0.7, fanout.mean(), service.mean_demand(sizes.mean()), 4
    )
    base = dict(
        n_servers=4,
        n_clients=2,
        seed=7,
        scheduler="das",
        keyspace_size=500,
        arrivals=PoissonArrivals(rate=rate),
        fanout=fanout,
        sizes=sizes,
        popularity=UniformPopularity(),
        service=service,
    )
    base.update(overrides)
    return ClusterConfig(**base)


#: In ``crash-outages`` the times are chosen against this seed's
#: trajectory: server 1 is idle when its pause starts at 14 ms, server 2
#: is serving with five ops queued when its pause starts at 20 ms, and
#: server 0 is mid-service when the crash lands at 15 ms.  The fault plan
#: also has an entry at t=0 and two entries at the same instant.
CELLS = {
    "open-das": (cell(), SimulationConfig(max_requests=400)),
    "closed-sbf": (
        cell(scheduler="sbf", closed_loop=True, closed_concurrency=3),
        SimulationConfig(max_requests=300),
    ),
    "periodic-duration": (
        cell(feedback=FeedbackConfig(mode=FeedbackMode.PERIODIC, interval=2e-3)),
        SimulationConfig(duration=0.06),
    ),
    "dodoor-reports": (
        cell(
            replication_factor=3,
            replica_selection="dodoor",
            load_report_interval=1e-3,
            replica_selection_params={"max_staleness": 3e-3},
        ),
        SimulationConfig(max_requests=300),
    ),
    "crash-outages": (
        cell(
            replication_factor=2,
            op_timeout=4e-3,
            max_retries=2,
            fault_plan=FaultPlan(
                (
                    DelaySpike(at=0.0, until=0.004, extra=100e-6),
                    Pause(1, at=0.014, until=0.017),
                    Crash(0, at=0.015),
                    Pause(2, at=0.02, until=0.023),
                    Recover(0, at=0.022),
                    DelaySpike(at=0.022, until=0.025, extra=50e-6),
                )
            ),
        ),
        SimulationConfig(max_requests=400),
    ),
    # Half speed from 10 ms on two of four servers; the windows end where
    # the duration-stopped run does.
    "slow-node": (
        cell(
            fault_plan=FaultPlan(
                tuple(
                    SlowNode(sid, at=0.01, until=0.06, factor=0.5) for sid in (0, 1)
                )
            )
        ),
        SimulationConfig(duration=0.06),
    ),
    "laned": (
        cell(scheduler="laned", scheduler_params={"inner": "das"}),
        SimulationConfig(max_requests=400),
    ),
    # Every message draws its own delay, so no two of a request's ops
    # share a delivery.
    "jitter-das": (
        cell(network_jitter_mean=20e-6),
        SimulationConfig(max_requests=400),
    ),
    # Per-op timers interleaved with the sends: timeouts that fire and
    # retry, hedges that fire and win, and timers poisoned by a response.
    "hedged-timeouts": (
        cell(
            replication_factor=3,
            op_timeout=1.5e-3,
            max_retries=2,
            hedge=HedgePolicy(percentile=90.0, min_samples=10),
        ),
        SimulationConfig(max_requests=400),
    ),
    # Link faults while requests are in flight and no client timer: a
    # lost op never completes, so the stop rule is a duration.
    "link-faults": (
        cell(
            fault_plan=FaultPlan(
                (
                    DelaySpike(at=0.004, until=0.012, extra=80e-6, servers=(0, 1)),
                    PacketLoss(at=0.010, until=0.030, probability=0.2, seed=5),
                    Partition(at=0.025, until=0.035, servers=(2,), clients=(1,)),
                    DelaySpike(at=0.028, until=0.040, extra=30e-6),
                )
            ),
        ),
        SimulationConfig(duration=0.06),
    ),
}

GOLDEN = {
    "open-das": "c1c0e2e82bef71cb2f72cf2520da38dfc74a7fe46ef12f277b78a9f0606cf047",
    "closed-sbf": "2dc849558b6427ffaf6dcee3260a3c506acd70279628d14d025f8f2cb7c78045",
    "periodic-duration": "93e17e80da8a34881f7fbfb2ce21446ca9620729a2aed24936100d205e1e2b98",
    "dodoor-reports": "e1b6da574b32caea45679e2b4d5f9936ade14a25d9a5802836817dbbd0cc4246",
    "crash-outages": "c2483872c0e527c70a22585647016ba40ea880c457d960d92626d894bd58574b",
    "slow-node": "92bcdc1e158c40bf7a740b989339000948b1658de543481d9141a9b27938c331",
    "laned": "9a842124200789e6f34e57618edef120106e2b9cc0b14ec856c5dc3feff58e40",
    "jitter-das": "c3d780a0fd9c1f2575f95e647422385a6c29612e7df1272f2e3a85493fb59ce5",
    "hedged-timeouts": "f6313dd67ccbd2ae1c2d67d7e278ca37893fa08d14a45da5c2c8437db36bfdf5",
    "link-faults": "06b0c7c29fa3298e8343af94443205ea2d4f200fb55e5f64c90f96b411eae0bb",
}

#: ``link-faults`` also pins what the network did to the messages: one
#: ``PacketLoss`` rng draw per message in sending order, so a message sent
#: out of order (or a verdict asked twice) moves these before the RCTs.
LINK_FAULT_COUNTERS = {
    "dropped_partition": 25,
    "dropped_loss": 145,
    "delayed_messages": 692,
}


#: The kernel schedule behind the digests: every cell's heap entries
#: (``env.events_scheduled``, the last entry's ``seq``) and, for the two
#: cells with per-op timers, the clients' summed timer counters.  A timer
#: that lost or gained an entry moves these even where the RCTs hold.
EVENTS_SCHEDULED = {
    "open-das": 3895,
    "closed-sbf": 2593,
    "periodic-duration": 3470,
    "dodoor-reports": 3585,
    "crash-outages": 6945,
    "slow-node": 2788,
    "laned": 3895,
    "jitter-das": 5041,
    "hedged-timeouts": 8435,
    "link-faults": 2908,
}
TIMER_FIELDS = (
    "timeouts_observed",
    "retries_sent",
    "hedges_sent",
    "hedges_won",
    "timers_cancelled",
)
TIMER_COUNTERS = {
    "crash-outages": (100, 100, 0, 0, 1546),
    "hedged-timeouts": (371, 312, 84, 25, 1751),
}


@pytest.mark.parametrize("name", sorted(CELLS))
def test_kernel_schedule_is_the_recorded_one(name):
    config, sim = CELLS[name]
    cluster = Cluster(config)
    cluster.run(sim)
    assert cluster.env.events_scheduled == EVENTS_SCHEDULED[name]
    if name in TIMER_COUNTERS:
        counters = tuple(
            sum(getattr(client, field) for client in cluster.clients)
            for field in TIMER_FIELDS
        )
        assert counters == TIMER_COUNTERS[name]


@pytest.mark.parametrize("name", sorted(CELLS))
def test_rct_digest_is_the_recorded_one(name):
    config, sim = CELLS[name]
    rcts = run_cluster(config, sim).rcts()
    digest = hashlib.sha256(
        np.ascontiguousarray(rcts, dtype="<f8").tobytes()
    ).hexdigest()
    assert digest == GOLDEN[name], f"{name}: {len(rcts)} RCTs, digest moved"


def test_link_fault_verdicts_are_the_recorded_ones():
    config, sim = CELLS["link-faults"]
    result = run_cluster(config, sim)
    assert result.faults["network"] == LINK_FAULT_COUNTERS
    assert (result.requests_sent, result.requests_completed) == (323, 239)
