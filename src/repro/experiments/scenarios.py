"""Scenario definitions — one per reconstructed table/figure.

Every scenario is a grid of (x-axis point × scheduler).  The ``scale``
argument shrinks the per-cell request count so the same scenario serves
both the full experiment runs (scale=1) and the quick benchmark suite
(scale<1) without changing shape.

Conventions shared by all scenarios (the "evaluation setup" section):

* 16 servers, 4 front-end clients, 10k keys;
* baseline traffic pattern: geometric fan-out (mean 5), lognormal value
  sizes (median 1 KiB); load sweeps use uniform key popularity (so offered
  load is well-defined per server) while E6 studies Zipf/hotspot skew;
* offered load is calibrated analytically from the spec moments;
* every cell runs the *same* seed so scheduler comparisons see identical
  workloads.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Tuple

from repro.core.feedback import FeedbackConfig, FeedbackMode
from repro.errors import ConfigError
from repro.faults import (
    Crash,
    FailureDetectorConfig,
    FaultPlan,
    HedgePolicy,
    PacketLoss,
    Partition,
    Pause,
    Recover,
    SlowNode,
)
from repro.kvstore.config import ClusterConfig, ServiceConfig, SimulationConfig
from repro.workload.arrivals import MMPPArrivals, PoissonArrivals
from repro.workload.fanout import BimodalFanout, FixedFanout, GeometricFanout
from repro.workload.popularity import UniformPopularity
from repro.workload.registry import workload
from repro.workload.requests import arrival_rate_for_load
from repro.workload.sizes import BimodalSize, ParetoSize
from repro.workload.spec import WorkloadSpec

#: Cluster-wide defaults for all scenarios.
N_SERVERS = 16
N_CLIENTS = 4
KEYSPACE = 10_000
SEED = 42
BASE_REQUESTS = 12_000
BASE_DURATION = 4.0

#: A scenario reads a workload's ``fanout``, ``sizes`` and ``popularity``;
#: its arrivals are calibrated per point.
BASELINE = workload("baseline")

# Most scenarios use the baseline pattern with *uniform* key popularity so
# the per-server offered load equals the calibrated target: with Zipf skew
# the hottest key's owner exceeds 1.0 utilization long before the nominal
# load does, turning the sweep into an unstable-hotspot measurement.
# Skewed popularity is studied on its own axis in E6.
SWEEP = dataclasses.replace(BASELINE, popularity=UniformPopularity())
BIMODAL_SWEEP = dataclasses.replace(
    workload("bimodal-fanout"), popularity=UniformPopularity()
)


@dataclass(frozen=True)
class SchedulerSpec:
    """One scheduler column of a scenario grid."""

    label: str
    name: str
    params: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class RunPoint:
    """One x-axis point: a cluster config (scheduler unset) + sim config."""

    x: Any
    config: ClusterConfig
    sim: SimulationConfig


@dataclass(frozen=True)
class Scenario:
    """A full experiment grid plus reporting metadata."""

    experiment_id: str
    title: str
    x_label: str
    metric: str  # attribute of SummaryStats: "mean", "p99", ...
    points: Tuple[RunPoint, ...]
    schedulers: Tuple[SchedulerSpec, ...]
    notes: str = ""


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
FCFS = SchedulerSpec("FCFS", "fcfs")
SBF = SchedulerSpec("Rein-SBF", "sbf")
REIN_ML = SchedulerSpec("Rein-ML", "rein-ml")
SJF_REQ = SchedulerSpec("SJF-Req", "sjf-req")
DAS = SchedulerSpec("DAS", "das")

CORE_SCHEDULERS = (FCFS, SBF, DAS)
FULL_SCHEDULERS = (FCFS, SJF_REQ, REIN_ML, SBF, DAS)


def _mean_demand(service: ServiceConfig, pattern=SWEEP) -> float:
    return service.mean_demand(pattern.sizes.mean())


def _rate_for_load(
    load: float,
    service: ServiceConfig,
    pattern=SWEEP,
    n_servers: int = N_SERVERS,
    mean_speed: float = 1.0,
) -> float:
    return arrival_rate_for_load(
        load,
        pattern.fanout.mean(),
        _mean_demand(service, pattern),
        n_servers,
        mean_speed=mean_speed,
    )


def _base_config(
    load: float,
    pattern=SWEEP,
    n_servers: int = N_SERVERS,
    mean_speed: float = 1.0,
    **overrides: Any,
) -> ClusterConfig:
    service = overrides.pop("service", ServiceConfig())
    if "arrivals" in overrides:
        arrivals = overrides.pop("arrivals")
    else:
        arrivals = PoissonArrivals(
            rate=_rate_for_load(load, service, pattern, n_servers, mean_speed)
        )
    return ClusterConfig(
        n_servers=n_servers,
        n_clients=N_CLIENTS,
        seed=SEED,
        keyspace_size=overrides.pop("keyspace_size", KEYSPACE),
        arrivals=arrivals,
        fanout=pattern.fanout,
        sizes=pattern.sizes,
        popularity=pattern.popularity,
        service=service,
        **overrides,
    )


def _requests(scale: float) -> int:
    return max(500, int(BASE_REQUESTS * scale))


def _duration(scale: float) -> float:
    return max(0.5, BASE_DURATION * scale)


def _check_scale(scale: float) -> None:
    if scale <= 0:
        raise ConfigError("scale must be positive")


def _slowed(servers, duration: float, factor: float = 0.5) -> FaultPlan:
    """``servers`` at ``factor`` speed from 25% of a duration-stopped run on.

    The window ends where the run does, so the slowdown is permanent.
    """
    return FaultPlan(
        tuple(
            SlowNode(sid, at=duration * 0.25, until=duration, factor=factor)
            for sid in servers
        )
    )


# ----------------------------------------------------------------------
# E1 / E2 — mean and tail RCT vs offered load
# ----------------------------------------------------------------------
def e1_scenario(scale: float = 1.0) -> Scenario:
    """Mean RCT vs offered load (the paper's headline figure)."""
    _check_scale(scale)
    loads = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    points = tuple(
        RunPoint(
            x=load,
            config=_base_config(load, pattern=SWEEP),
            sim=SimulationConfig(max_requests=_requests(scale)),
        )
        for load in loads
    )
    return Scenario(
        experiment_id="E1",
        title="Mean RCT vs offered load (baseline pattern)",
        x_label="load",
        metric="mean",
        points=points,
        schedulers=FULL_SCHEDULERS,
        notes="Paper claim: DAS cuts mean RCT 15~50%+ vs FCFS across loads.",
    )


def e2_scenario(scale: float = 1.0) -> Scenario:
    """P99 RCT vs offered load."""
    _check_scale(scale)
    loads = (0.5, 0.7, 0.9)
    points = tuple(
        RunPoint(
            x=load,
            config=_base_config(load, pattern=SWEEP),
            sim=SimulationConfig(max_requests=_requests(scale)),
        )
        for load in loads
    )
    return Scenario(
        experiment_id="E2",
        title="Tail (P99) RCT vs offered load",
        x_label="load",
        metric="p99",
        points=points,
        schedulers=CORE_SCHEDULERS,
        notes="Size-based policies trade tail for mean; DAS bounds starvation.",
    )


# ----------------------------------------------------------------------
# E3 — RCT vs fan-out
# ----------------------------------------------------------------------
def e3_scenario(scale: float = 1.0) -> Scenario:
    """Mean RCT vs *mean* multiget fan-out at fixed load 0.7.

    Fan-out is geometric around each mean so requests keep a size spread
    at every point — with a fixed fan-out all requests are identical in
    shape and size-based ordering has nothing to exploit (it even loses
    slightly to FCFS by adding cross-server jitter).
    """
    _check_scale(scale)
    fanout_means = (1.5, 2, 4, 8, 16)
    points = []
    for k in fanout_means:
        pattern = dataclasses.replace(
            SWEEP, fanout=GeometricFanout(mean_target=float(k), cap=64)
        )
        points.append(
            RunPoint(
                x=k,
                config=_base_config(0.7, pattern=pattern),
                sim=SimulationConfig(max_requests=_requests(scale)),
            )
        )
    return Scenario(
        experiment_id="E3",
        title="Mean RCT vs mean fan-out (load 0.7, geometric mixes)",
        x_label="mean_fanout",
        metric="mean",
        points=tuple(points),
        schedulers=CORE_SCHEDULERS,
        notes="Fan-out near 1 degenerates to independent M/G/1 queues.",
    )


# ----------------------------------------------------------------------
# E4 — time-varying load (adaptivity)
# ----------------------------------------------------------------------
def e4_scenario(scale: float = 1.0) -> Scenario:
    """Mean RCT under Markov-modulated load alternating 0.4 <-> 0.95.

    The x-axis is the spike dwell time: shorter dwell = faster variation.
    Uses the bimodal fan-out mix so the adaptive demotion has outliers to
    act on during spikes.
    """
    _check_scale(scale)
    pattern = dataclasses.replace(
        SWEEP, fanout=BimodalFanout(small=2, large=32, p_large=0.1)
    )
    service = ServiceConfig()
    r_low = _rate_for_load(0.4, service, pattern)
    r_high = _rate_for_load(0.95, service, pattern)
    dwells = (0.1, 0.3, 1.0)
    points = []
    for dwell in dwells:
        arrivals = MMPPArrivals(rates=(r_low, r_high), dwell_means=(dwell, dwell))
        points.append(
            RunPoint(
                x=dwell,
                config=_base_config(0.0, pattern=pattern, arrivals=arrivals),
                sim=SimulationConfig(duration=_duration(scale), warmup_fraction=0.1),
            )
        )
    return Scenario(
        experiment_id="E4",
        title="Time-varying load (MMPP 0.4<->0.95) vs dwell time",
        x_label="dwell_s",
        metric="mean",
        points=tuple(points),
        schedulers=(FCFS, SBF, DAS, SchedulerSpec("DAS-noadapt", "das", {"adaptive": False})),
        notes="Adaptivity axis: the spike length varies, the mean load is fixed.",
    )


# ----------------------------------------------------------------------
# E5 — server performance degradation
# ----------------------------------------------------------------------
def e5_scenario(scale: float = 1.0) -> Scenario:
    """Mean RCT with 0/1/2/4 of 16 servers degraded to 50% speed mid-run."""
    _check_scale(scale)
    duration = _duration(scale)
    counts = (0, 1, 2, 4)
    points = []
    for n_degraded in counts:
        points.append(
            RunPoint(
                x=n_degraded,
                config=_base_config(
                    0.55, fault_plan=_slowed(range(n_degraded), duration)
                ),
                sim=SimulationConfig(duration=duration, warmup_fraction=0.1),
            )
        )
    return Scenario(
        experiment_id="E5",
        title="Server performance degradation (50% speed from t=25%)",
        x_label="degraded_servers",
        metric="mean",
        points=tuple(points),
        schedulers=CORE_SCHEDULERS,
        notes="DAS's rate estimates deprioritize requests bound for slow servers.",
    )


# ----------------------------------------------------------------------
# E6 — traffic patterns
# ----------------------------------------------------------------------
#: E6's x labels and the bundled spec each one reads.
E6_MIXES = (
    ("baseline", "baseline"),
    ("uniform", "uniform"),
    ("bimodal", "bimodal-fanout"),
    ("heavytail", "pareto-heavytail"),
    ("hotspot", "hotspot"),
    ("single-get", "single-get"),
)


def e6_scenario(scale: float = 1.0) -> Scenario:
    """Mean RCT across named traffic patterns at load 0.7."""
    _check_scale(scale)
    points = tuple(
        RunPoint(
            x=label,
            config=_base_config(0.7, pattern=workload(name)),
            sim=SimulationConfig(max_requests=_requests(scale)),
        )
        for label, name in E6_MIXES
    )
    return Scenario(
        experiment_id="E6",
        title="Mean RCT across traffic patterns (load 0.7)",
        x_label="pattern",
        metric="mean",
        points=points,
        schedulers=CORE_SCHEDULERS,
        notes="The paper's 'different traffic patterns' axis.",
    )


# ----------------------------------------------------------------------
# E7 — headline reduction table
# ----------------------------------------------------------------------
def e7_scenario(scale: float = 1.0) -> Scenario:
    """Representative scenarios for the headline reduction-vs-FCFS table."""
    _check_scale(scale)
    points = []
    # Moderate and heavy load on the baseline pattern.
    for load in (0.5, 0.7, 0.9):
        points.append(
            RunPoint(
                x=f"baseline@{load}",
                config=_base_config(load),
                sim=SimulationConfig(max_requests=_requests(scale)),
            )
        )
    # Bimodal pattern at heavy load.
    bimodal = BIMODAL_SWEEP
    points.append(
        RunPoint(
            x="bimodal@0.8",
            config=_base_config(0.8, pattern=bimodal),
            sim=SimulationConfig(max_requests=_requests(scale)),
        )
    )
    # Degradation scenario.
    duration = _duration(scale)
    points.append(
        RunPoint(
            x="degraded@0.55",
            config=_base_config(0.55, fault_plan=_slowed((0, 1), duration)),
            sim=SimulationConfig(duration=duration, warmup_fraction=0.1),
        )
    )
    return Scenario(
        experiment_id="E7",
        title="Headline: mean-RCT reduction of DAS vs FCFS and vs Rein-SBF",
        x_label="scenario",
        metric="mean",
        points=tuple(points),
        schedulers=CORE_SCHEDULERS,
        notes="Paper claim: >15~50% vs FCFS; DAS >= Rein-SBF everywhere.",
    )


# ----------------------------------------------------------------------
# E8 — parameter sensitivity
# ----------------------------------------------------------------------
def e8_scenario(scale: float = 1.0) -> Scenario:
    """DAS sensitivity: demotion floor k_min and rate-EWMA alpha.

    Run on the degradation scenario, where both knobs matter most.
    """
    _check_scale(scale)
    duration = _duration(scale)
    point = RunPoint(
        x="degraded@0.55",
        config=_base_config(0.55, fault_plan=_slowed((0, 1), duration)),
        sim=SimulationConfig(duration=duration, warmup_fraction=0.1),
    )
    schedulers = [SBF]
    for k_min in (2.0, 4.0, 8.0):
        schedulers.append(
            SchedulerSpec(f"DAS k_min={k_min}", "das", {"k_min": k_min})
        )
    estimator_sweeps = (0.05, 0.2, 0.5)
    points = [point]
    for alpha in estimator_sweeps:
        cfg = dataclasses.replace(point.config, estimator_params={"alpha_rate": alpha})
        points.append(RunPoint(x=f"alpha_rate={alpha}", config=cfg, sim=point.sim))
    return Scenario(
        experiment_id="E8",
        title="DAS parameter sensitivity (degradation scenario)",
        x_label="configuration",
        metric="mean",
        points=tuple(points),
        schedulers=tuple(schedulers),
        notes="First point: default estimator; remaining points sweep alpha_rate.",
    )


# ----------------------------------------------------------------------
# E9 — scalability with cluster size
# ----------------------------------------------------------------------
def e9_scenario(scale: float = 1.0) -> Scenario:
    """Mean RCT vs cluster size at fixed per-server load 0.7."""
    _check_scale(scale)
    sizes = (8, 16, 32)
    points = []
    for n in sizes:
        points.append(
            RunPoint(
                x=n,
                config=_base_config(0.7, n_servers=n),
                sim=SimulationConfig(max_requests=_requests(scale)),
            )
        )
    return Scenario(
        experiment_id="E9",
        title="Scalability: mean RCT vs cluster size (load 0.7)",
        x_label="n_servers",
        metric="mean",
        points=tuple(points),
        schedulers=CORE_SCHEDULERS,
        notes="DAS is fully distributed; gains should persist with scale.",
    )


# ----------------------------------------------------------------------
# E10 — fairness / large-request slowdown
# ----------------------------------------------------------------------
def e10_scenario(scale: float = 1.0) -> Scenario:
    """P99 slowdown under the bimodal mix (starvation check).

    Reported metric is the p99 *slowdown* (RCT / own bottleneck demand):
    size-based policies can starve large multigets; DAS's aging bounds it.
    """
    _check_scale(scale)
    pattern = BIMODAL_SWEEP
    points = tuple(
        RunPoint(
            x=load,
            config=_base_config(load, pattern=pattern),
            sim=SimulationConfig(max_requests=_requests(scale)),
        )
        for load in (0.7, 0.9)
    )
    return Scenario(
        experiment_id="E10",
        title="Fairness: P99 slowdown under the bimodal mix",
        x_label="load",
        metric="p99_slowdown",
        points=points,
        schedulers=(FCFS, SchedulerSpec("SFQ", "sfq"), SBF, DAS),
        notes="slowdown = RCT / bottleneck demand of the request itself.",
    )


# ----------------------------------------------------------------------
# A1 — DAS ablation
# ----------------------------------------------------------------------
def a1_scenario(scale: float = 1.0) -> Scenario:
    """Ablate DAS's three mechanisms on the degradation scenario."""
    _check_scale(scale)
    duration = _duration(scale)
    points = (
        RunPoint(
            x="degraded@0.55",
            config=_base_config(0.55, fault_plan=_slowed((0, 1), duration)),
            sim=SimulationConfig(duration=duration, warmup_fraction=0.1),
        ),
        RunPoint(
            x="bimodal@0.8",
            config=_base_config(0.8, pattern=BIMODAL_SWEEP),
            sim=SimulationConfig(max_requests=_requests(scale)),
        ),
    )
    schedulers = (
        DAS,
        SchedulerSpec("DAS w/o adapt", "das", {"adaptive": False}),
        SchedulerSpec("DAS w/o last band", "das", {"last_band": False}),
        SchedulerSpec("DAS w/o SRPT front", "das", {"srpt_front": False}),
        SBF,
    )
    return Scenario(
        experiment_id="A1",
        title="DAS ablation: adaptation / last band / SRPT front",
        x_label="scenario",
        metric="mean",
        points=points,
        schedulers=schedulers,
        notes="Our ablation (not in the paper): isolates each mechanism.",
    )


# ----------------------------------------------------------------------
# A2 — feedback freshness
# ----------------------------------------------------------------------
def a2_scenario(scale: float = 1.0) -> Scenario:
    """DAS under piggyback / periodic / no feedback (degradation scenario)."""
    _check_scale(scale)
    duration = _duration(scale)
    base = _base_config(0.55, fault_plan=_slowed((0, 1), duration))
    sim = SimulationConfig(duration=duration, warmup_fraction=0.1)
    modes = (
        ("piggyback", FeedbackConfig(mode=FeedbackMode.PIGGYBACK)),
        ("periodic-1ms", FeedbackConfig(mode=FeedbackMode.PERIODIC, interval=1e-3)),
        ("periodic-20ms", FeedbackConfig(mode=FeedbackMode.PERIODIC, interval=20e-3)),
        ("none", FeedbackConfig(mode=FeedbackMode.NONE)),
    )
    points = tuple(
        RunPoint(x=label, config=dataclasses.replace(base, feedback=fb), sim=sim)
        for label, fb in modes
    )
    return Scenario(
        experiment_id="A2",
        title="Feedback freshness: piggyback vs periodic vs none",
        x_label="feedback",
        metric="mean",
        points=points,
        schedulers=(DAS, SBF),
        notes="Without feedback DAS degrades to static SBF ordering.",
    )


# ----------------------------------------------------------------------
# X1 — extension (ours): DAS estimates reused for replica selection
# ----------------------------------------------------------------------
def x1_scenario(scale: float = 1.0) -> Scenario:
    """Replica-selection policies under Zipf skew, replication factor 3.

    DAS's per-server feedback estimates come for free; the
    :mod:`repro.selection` policies reuse them to steer GETs away from
    congested replicas.  ``tars`` (timeliness-aware scoring over the same
    ``ServerEstimates`` DAS reads) is compared against primary-only (the
    paper's setting) and blind round-robin at load 0.7 under Zipf(0.99)
    keys — the regime where the hot key's owner saturates.  The full
    policy shoot-out (including probe-based ``prequal``) is X3.
    """
    _check_scale(scale)
    selections = ("primary", "round_robin", "tars")
    points = []
    for selection in selections:
        points.append(
            RunPoint(
                x=selection,
                config=_base_config(
                    0.7,
                    pattern=BASELINE,  # Zipf skew is the point here
                    replication_factor=3,
                    replica_selection=selection,
                ),
                sim=SimulationConfig(max_requests=_requests(scale)),
            )
        )
    return Scenario(
        experiment_id="X1",
        title="Extension: replica selection from DAS estimates (Zipf, n=3)",
        x_label="selection",
        metric="mean",
        points=tuple(points),
        schedulers=(DAS, SBF),
        notes="Ours, not in the paper: estimate-driven replica selection.",
    )


# ----------------------------------------------------------------------
# X2 — extension (ours): surviving a server outage with timeout+retry
# ----------------------------------------------------------------------
def x2_scenario(scale: float = 1.0) -> Scenario:
    """Mean RCT with one server down for the middle half of the run.

    Points compare the unprotected cluster against timeout-and-retry over
    2-way replication.  With retries, requests route around the dead
    server; without, everything touching it stalls until recovery.
    """
    _check_scale(scale)
    duration = _duration(scale)
    outage = FaultPlan((Pause(0, at=duration * 0.25, until=duration * 0.75),))
    variants = (
        ("no-retry", dict(fault_plan=outage)),
        (
            "retry-r2",
            dict(
                fault_plan=outage,
                replication_factor=2,
                op_timeout=0.02,
                max_retries=2,
            ),
        ),
        (
            "healthy",
            dict(replication_factor=2, op_timeout=0.02, max_retries=2),
        ),
    )
    points = []
    for label, overrides in variants:
        points.append(
            RunPoint(
                x=label,
                config=_base_config(0.5, **overrides),
                sim=SimulationConfig(duration=duration, warmup_fraction=0.0),
            )
        )
    return Scenario(
        experiment_id="X2",
        title="Extension: outage survival via op timeout + replica retry",
        x_label="configuration",
        metric="p999",
        points=tuple(points),
        schedulers=(DAS,),
        notes="Ours, not in the paper: fault injection with retries.",
    )


# ----------------------------------------------------------------------
# X3 — extension (ours): replica-selection shoot-out on a degraded fleet
# ----------------------------------------------------------------------
def x3_scenario(scale: float = 1.0) -> Scenario:
    """Every selection policy on a heterogeneous, mid-run-degraded fleet.

    Three-way replication under Zipf skew on a fleet where a quarter of
    the servers are permanently slower (speed 0.7) and two more lose 60%
    of their speed a quarter of the way in.  This is the regime replica
    selection exists for: load-oblivious policies (``primary``,
    ``random``, ``round_robin``) keep routing reads onto the slow and
    degraded replicas, while estimate- and probe-driven policies
    (``least_estimated_work``, ``power_of_d``, ``c3``, ``tars``,
    ``prequal``) shed them from the congested servers.  Single scheduler
    (DAS) so the selection axis is the only variable.
    """
    _check_scale(scale)
    duration = _duration(scale)
    speeds = tuple(0.7 if sid % 4 == 0 else 1.0 for sid in range(N_SERVERS))
    mean_speed = sum(speeds) / len(speeds)
    selections = (
        "primary",
        "random",
        "round_robin",
        "least_estimated_work",
        "power_of_d",
        "c3",
        "tars",
        "prequal",
    )
    points = []
    for selection in selections:
        points.append(
            RunPoint(
                x=selection,
                config=_base_config(
                    0.55,
                    pattern=BASELINE,  # Zipf skew: hot owners congest first
                    mean_speed=mean_speed,
                    server_speeds=speeds,
                    fault_plan=_slowed((1, 2), duration, factor=0.4),
                    replication_factor=3,
                    replica_selection=selection,
                ),
                sim=SimulationConfig(duration=duration, warmup_fraction=0.1),
            )
        )
    return Scenario(
        experiment_id="X3",
        title="Extension: selection policy shoot-out (degraded fleet, n=3)",
        x_label="selection",
        metric="mean",
        points=tuple(points),
        schedulers=(DAS,),
        notes="Ours, not in the paper: adaptive policies must beat "
        "primary and random on mean and p99 here.",
    )


# ----------------------------------------------------------------------
# X5 — extension (ours): fleet-scale selection vs control-plane cost
# ----------------------------------------------------------------------
#: Fleet sizes for the scale-out axis (the paper tops out at 16 servers).
X5_FLEETS = (128, 256, 512)
#: Adaptive policies compared at every fleet size.  ``prequal`` pays two
#: probe round-trips per request; ``dodoor`` pays one broadcast per
#: server per refresh interval regardless of the request rate; ``tars``
#: and ``power_of_d`` ride piggybacked feedback only.
X5_SELECTIONS = ("power_of_d", "tars", "prequal", "dodoor")
#: Dodoor reporter cadence of the fleet-size cells (the headline point:
#: at 256 servers this is where reports/request drops an order of
#: magnitude below prequal's probes/request).
X5_HEADLINE_INTERVAL = 10e-3
#: Extra dodoor refresh intervals swept at 256 servers (the headline
#: interval already covers 10 ms via the fleet axis).
X5_INTERVAL_SWEEP = (2e-3, 5e-3, 20e-3)


def _x5_overrides(selection: str, interval: float = X5_HEADLINE_INTERVAL) -> Dict[str, Any]:
    """Per-policy cluster knobs for one X5 cell."""
    overrides: Dict[str, Any] = dict(
        replication_factor=3,
        replica_selection=selection,
        # Multi-tenant keyspace: each client draws from its own slice, so
        # no two front-ends contend on the same keys — selection skew is
        # purely a load signal, not a popularity artifact.
        tenants=N_CLIENTS,
    )
    if selection == "prequal":
        overrides["probes_per_request"] = 2
    if selection == "dodoor":
        overrides["load_report_interval"] = interval
        # Keep cached entries valid across one missed report plus slack.
        overrides["replica_selection_params"] = {
            "max_staleness": max(25e-3, 2.5 * interval)
        }
    return overrides


def x5_scenario(scale: float = 1.0) -> Scenario:
    """Fleet-scale replica selection: RCT vs control-plane message cost.

    128/256/512 servers at fixed per-server load 0.7, three-way
    replication, uniform popularity partitioned into one keyspace slice
    per client (multi-tenant).  The adaptive policies differ in *how*
    they learn server load: ``prequal`` probes per request (control cost
    scales with the request rate), ``dodoor`` holds a bounded-stale load
    cache refreshed by periodic asynchronous server reports (control
    cost scales with servers/interval, independent of request rate),
    ``tars``/``power_of_d`` use free piggybacked feedback only.  A
    refresh-interval sweep at 256 servers traces dodoor's
    freshness-vs-overhead curve.  Per-cell control-plane accounting
    (``messages_sent{kind}``) surfaces through ``selection_stats()`` and
    the ``client_control_messages`` gauges.
    """
    _check_scale(scale)
    points = []
    for n in X5_FLEETS:
        for selection in X5_SELECTIONS:
            points.append(
                RunPoint(
                    x=f"{n}s/{selection}",
                    config=_base_config(
                        0.7, n_servers=n, **_x5_overrides(selection)
                    ),
                    sim=SimulationConfig(max_requests=_requests(scale)),
                )
            )
    for interval in X5_INTERVAL_SWEEP:
        points.append(
            RunPoint(
                x=f"256s/dodoor@{interval * 1e3:g}ms",
                config=_base_config(
                    0.7, n_servers=256, **_x5_overrides("dodoor", interval)
                ),
                sim=SimulationConfig(max_requests=_requests(scale)),
            )
        )
    return Scenario(
        experiment_id="X5",
        title="Extension: fleet-scale selection vs control-plane cost",
        x_label="fleet/selection",
        metric="p99",
        points=tuple(points),
        schedulers=(DAS,),
        notes="Ours, not in the paper: at 256+ servers dodoor must match "
        "prequal's tail within a guard band at an order of magnitude "
        "fewer control-plane messages per request.",
    )


# ----------------------------------------------------------------------
# X6 — extension (ours): chaos plans vs client resilience
# ----------------------------------------------------------------------
def x6_scenario(scale: float = 1.0) -> Scenario:
    """Tail RCT under a declarative fault plan × client protection matrix.

    Every faulty point shares the same fault window — 30% to 60% of the
    run — expressed as a :class:`~repro.faults.FaultPlan` (the same object
    the runtime's ``LocalCluster.apply_fault_plan`` accepts).  The crash
    plan is measured twice: with timeout+retry only, and with tail
    hedging plus a per-server failure detector on top; the hedged cell
    must beat the timeout-only cell on p99 because a hedge fires in a few
    milliseconds while a timeout burns the full 20 ms budget per attempt.
    Partition, packet-loss and slow-node plans round out the family.
    Use :func:`repro.faults.report.chaos_report` on a cell's re-run for
    phase-split p99 and time-to-recover.
    """
    _check_scale(scale)
    duration = _duration(scale)
    start, end = duration * 0.3, duration * 0.6
    protection: Dict[str, Any] = dict(
        replication_factor=3,
        replica_selection="tars",
        op_timeout=0.02,
        max_retries=2,
    )
    guarded: Dict[str, Any] = dict(
        protection,
        hedge=HedgePolicy(percentile=95.0, min_samples=20),
        failure_detector=FailureDetectorConfig(failure_threshold=3),
    )
    crash_plan = FaultPlan((Crash(0, at=start), Recover(0, at=end)))
    variants = (
        ("healthy", dict(guarded)),
        ("crash/timeout-only", dict(protection, fault_plan=crash_plan)),
        ("crash/hedge+cb", dict(guarded, fault_plan=crash_plan)),
        (
            "partition/hedge+cb",
            dict(
                guarded,
                fault_plan=FaultPlan(
                    (Partition(at=start, until=end, servers=(0, 1)),)
                ),
            ),
        ),
        (
            "flaky/hedge+cb",
            dict(
                guarded,
                fault_plan=FaultPlan(
                    (
                        PacketLoss(
                            at=start,
                            until=end,
                            probability=0.3,
                            servers=(0, 1, 2),
                            seed=7,
                        ),
                    )
                ),
            ),
        ),
        (
            "slownode/hedge+cb",
            dict(
                guarded,
                fault_plan=FaultPlan(
                    (SlowNode(0, at=start, until=end, factor=0.25),)
                ),
            ),
        ),
    )
    points = []
    for label, overrides in variants:
        points.append(
            RunPoint(
                x=label,
                config=_base_config(0.5, **overrides),
                sim=SimulationConfig(duration=duration, warmup_fraction=0.0),
            )
        )
    return Scenario(
        experiment_id="X6",
        title="Extension: chaos plans vs client resilience (hedge + breaker)",
        x_label="fault/protection",
        metric="p99",
        points=tuple(points),
        schedulers=(FCFS, DAS),
        notes="Ours, not in the paper: one declarative FaultPlan drives "
        "both sim and runtime; hedging + failure detection must beat "
        "timeout-only p99 under the crash plan.",
    )


def _x4_pattern(name: str, sizes) -> WorkloadSpec:
    """Multiget uniform-popularity pattern over a heavy-tailed size mix.

    Fan-out 8 is deliberate: a request is as slow as its slowest slice,
    so a sub-1% population of large operations touches ``1-(1-p)^8`` of
    *requests* — the tail-at-scale amplification that makes size-blind
    scheduling visible at p99, exactly the regime Minos targets.
    """
    return WorkloadSpec(
        name=name,
        description=f"X4 size mix: {name}",
        fanout=FixedFanout(k=8),
        sizes=sizes,
        popularity=UniformPopularity(),
    )


#: X4 lane knobs shared by every laned column.  The 0.9 small share
#: tracks the small class's demand fraction with headroom: larges keep a
#: guaranteed 10% (no DAS last-band starvation) while the weighted-fair
#: dispatcher spaces them too far apart to convoy (docs/sharding.md).
_X4_LANES = dict(inner="das", small_share=0.9, cutoff_quantile=0.99)


def x4_scenario(scale: float = 1.0) -> Scenario:
    """Size-aware lanes × scheduler × cutoff adaptation (Minos axis).

    Three heavy-tailed fan-out-8 size mixes — bimodal small/large and
    two truncated-Pareto tails (the ``alpha <= 1.5`` shapes the
    ``ParetoSize`` fix legalizes) — measured under plain FCFS/DAS and
    the ``laned`` composition.  The laned columns ablate the knobs the
    tentpole adds: inner policy (FCFS vs DAS within a lane), cutoff
    adaptation on/off (static 8 KiB initial), and the lane capacity
    split (tuned 0.90 vs naive 0.50 small share).

    Expected shape: Lanes+DAS beats plain DAS on p99 *and* p999 without
    degrading the mean — the large class keeps a guaranteed weighted-fair
    share instead of DAS last-band starvation, so the ``1-(1-p)^8`` of
    requests carrying a large slice stop inheriting a starved
    bottleneck, while small-only requests still never queue behind more
    than one large.
    """
    _check_scale(scale)
    mixes = (
        _x4_pattern(
            "bimodal",
            BimodalSize(small=512, large=262144, p_large=0.005),
        ),
        _x4_pattern(
            "pareto-1.3",
            ParetoSize(lo=2048.0, alpha=1.3, cap=1 << 20),
        ),
        _x4_pattern(
            "pareto-1.5",
            ParetoSize(lo=4096.0, alpha=1.5, cap=1 << 21),
        ),
    )
    points = tuple(
        RunPoint(
            x=pattern.name,
            config=_base_config(0.75, pattern=pattern),
            sim=SimulationConfig(max_requests=_requests(scale)),
        )
        for pattern in mixes
    )
    schedulers = (
        FCFS,
        DAS,
        SchedulerSpec("Lanes+FCFS", "laned", dict(_X4_LANES, inner="fcfs")),
        SchedulerSpec("Lanes+DAS", "laned", dict(_X4_LANES)),
        SchedulerSpec(
            "Lanes+DAS static cutoff",
            "laned",
            dict(_X4_LANES, adaptive_cutoff=False),
        ),
        SchedulerSpec(
            "Lanes+DAS 50/50 split",
            "laned",
            dict(_X4_LANES, small_share=0.5),
        ),
    )
    return Scenario(
        experiment_id="X4",
        title="Extension: size-aware two-lane service tier (Minos-style)",
        x_label="size mix",
        metric="p99",
        points=points,
        schedulers=schedulers,
        notes="Ours, not in the paper: size lane first, scheduler policy "
        "within a lane.  Lanes+DAS must beat plain DAS on p99 and p999 "
        "without degrading the mean; the static-cutoff and 50/50-split "
        "columns ablate the adaptation and the capacity split.",
    )


SCENARIOS: Dict[str, Callable[[float], Scenario]] = {
    "E1": e1_scenario,
    "E2": e2_scenario,
    "E3": e3_scenario,
    "E4": e4_scenario,
    "E5": e5_scenario,
    "E6": e6_scenario,
    "E7": e7_scenario,
    "E8": e8_scenario,
    "E9": e9_scenario,
    "E10": e10_scenario,
    "A1": a1_scenario,
    "A2": a2_scenario,
    "X1": x1_scenario,
    "X2": x2_scenario,
    "X3": x3_scenario,
    "X4": x4_scenario,
    "X5": x5_scenario,
    "X6": x6_scenario,
}


def get_scenario(experiment_id: str, scale: float = 1.0) -> Scenario:
    """Build the scenario for ``experiment_id`` at the given scale."""
    try:
        factory = SCENARIOS[experiment_id]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise ConfigError(
            f"unknown experiment {experiment_id!r}; known: {known}"
        ) from None
    return factory(scale)


def workload_scenario(ref: str, scale: float = 1.0) -> Scenario:
    """Scheduler-comparison grid over one declarative workload spec.

    ``ref`` is a registry name (``"mmpp-burst"``) or a spec-file path;
    the cell's :class:`ClusterConfig` carries it as ``workload=...`` so
    the resolved generator fields — and the spec's content fingerprint —
    land in the config repr the parallel engine's checkpoints key on.
    One x-axis point (the spec), the core scheduler columns, same
    cluster defaults and seed as every other scenario.
    """
    _check_scale(scale)
    from repro.workload.registry import resolve_workload

    spec = resolve_workload(ref)  # fail fast with the spec's own error
    config = ClusterConfig(
        n_servers=N_SERVERS,
        n_clients=N_CLIENTS,
        seed=SEED,
        keyspace_size=KEYSPACE,
        workload=ref,
    )
    point = RunPoint(
        x=spec.name,
        config=config,
        sim=SimulationConfig(max_requests=_requests(scale)),
    )
    return Scenario(
        experiment_id=f"W:{spec.name}",
        title=f"Workload spec {spec.name!r}: {spec.description or 'scheduler comparison'}",
        x_label="workload",
        metric="mean",
        points=(point,),
        schedulers=CORE_SCHEDULERS,
        notes="Declarative workload from the registry (docs/workloads.md).",
    )
