"""End-to-end assertions of the paper's claims (at reduced scale).

These tests run real (small) simulations and check the *shape* of the
results the paper reports — who wins and roughly by how much — not exact
numbers.  They are the repository's regression net for the scientific
result itself.
"""


import pytest

from repro import ClusterConfig, ServiceConfig, SimulationConfig, run_cluster
from repro.faults import FaultPlan, SlowNode
from repro.workload import BimodalFanout, GeometricFanout, PoissonArrivals
from repro.workload.requests import arrival_rate_for_load
from repro.workload.sizes import LognormalSize
from repro.workload.popularity import UniformPopularity


def paper_config(scheduler: str, load: float = 0.8, **overrides) -> ClusterConfig:
    """A scaled-down version of the paper's evaluation setup."""
    service = ServiceConfig()
    fanout = overrides.pop("fanout", GeometricFanout(mean_target=5.0, cap=64))
    sizes = overrides.pop("sizes", LognormalSize(median=1024.0, sigma=1.0, cap=1 << 18))
    mean_speed = overrides.pop("mean_speed", 1.0)
    n_servers = overrides.pop("n_servers", 8)
    rate = arrival_rate_for_load(
        load, fanout.mean(), service.mean_demand(sizes.mean()), n_servers,
        mean_speed=mean_speed,
    )
    return ClusterConfig(
        n_servers=n_servers,
        n_clients=2,
        seed=21,
        scheduler=scheduler,
        keyspace_size=4000,
        arrivals=overrides.pop("arrivals", PoissonArrivals(rate=rate)),
        fanout=fanout,
        sizes=sizes,
        # Uniform popularity keeps per-server load at the calibrated
        # target; Zipf skew overloads the hot key's owner and swamps the
        # scheduler effect (see E6 for the skew axis).
        popularity=UniformPopularity(),
        service=service,
        **overrides,
    )


def mean_rct(scheduler: str, requests: int = 6000, **overrides) -> float:
    config = paper_config(scheduler, **overrides)
    return run_cluster(config, SimulationConfig(max_requests=requests)).mean_rct


class TestHeadlineClaims:
    """Abstract: 'DAS reduces mean RCT by more than 15~50% vs FCFS'."""

    def test_das_beats_fcfs_by_paper_margin_at_heavy_load(self):
        fcfs = mean_rct("fcfs", load=0.8)
        das = mean_rct("das", load=0.8)
        reduction = 1.0 - das / fcfs
        assert reduction > 0.30  # paper: 15~50%+

    def test_das_beats_fcfs_at_moderate_load(self):
        fcfs = mean_rct("fcfs", load=0.6)
        das = mean_rct("das", load=0.6)
        assert das < fcfs

    def test_sbf_also_beats_fcfs(self):
        """Sanity: the comparator must itself be strong, else beating it
        means nothing."""
        fcfs = mean_rct("fcfs", load=0.8)
        sbf = mean_rct("sbf", load=0.8)
        assert 1.0 - sbf / fcfs > 0.25

    def test_das_close_to_or_better_than_sbf_on_uniform_cluster(self):
        """On a homogeneous, healthy cluster DAS degrades gracefully to
        SBF-like ordering (within a few percent)."""
        sbf = mean_rct("sbf", load=0.8)
        das = mean_rct("das", load=0.8)
        assert das < sbf * 1.10


class TestAdaptivityClaims:
    """Abstract: 'adaptive to the time-varying server load and performance'."""

    def test_das_beats_sbf_under_degradation(self):
        # Degrade to a *stable* slow point (local load 0.55/0.6 < 1): an
        # overloaded queue's unbounded drift would swamp the comparison.
        duration = 3.0
        fault_plan = FaultPlan(
            tuple(
                SlowNode(sid, at=duration * 0.2, until=duration, factor=0.6)
                for sid in (0, 1)
            )
        )
        sim = SimulationConfig(duration=duration, warmup_fraction=0.25)
        results = {}
        for scheduler in ("sbf", "das"):
            config = paper_config(
                scheduler, load=0.55, n_servers=16, fault_plan=fault_plan
            )
            results[scheduler] = run_cluster(config, sim).mean_rct
        assert results["das"] < results["sbf"] * 0.95  # >=5% better

    def test_das_beats_sbf_with_heterogeneous_speeds(self):
        speeds = tuple([0.5, 0.75] + [1.0] * 12 + [1.25, 1.5])
        kwargs = dict(
            n_servers=16, server_speeds=speeds,
            mean_speed=sum(speeds) / len(speeds), load=0.7,
        )
        sbf = mean_rct("sbf", **kwargs)
        das = mean_rct("das", **kwargs)
        assert das < sbf * 0.88  # >=12% better (measured: ~21-26%)

    def test_das_rate_estimates_track_degradation(self):
        from repro.kvstore.cluster import Cluster

        duration = 2.0
        config = paper_config(
            "das",
            load=0.5,
            fault_plan=FaultPlan((SlowNode(0, at=0.3, until=duration, factor=0.5),)),
        )
        cluster = Cluster(config)
        cluster.run(SimulationConfig(duration=duration, warmup_fraction=0.1))
        estimates = cluster.clients[0].estimates
        assert estimates.rate(0) == pytest.approx(0.5, abs=0.15)
        assert estimates.rate(2) == pytest.approx(1.0, abs=0.15)


class TestMultigetStructure:
    def test_rct_grows_with_fanout(self):
        """The max-structure: more keys -> later last completion."""
        from repro.workload.fanout import FixedFanout

        small = mean_rct("fcfs", load=0.5, fanout=FixedFanout(k=2))
        large = mean_rct("fcfs", load=0.5, fanout=FixedFanout(k=12))
        assert large > small

    def test_single_get_neutralizes_multiget_schedulers(self):
        """At fan-out 1, SBF == SJF == per-op size order; the gap to FCFS
        shrinks but size-based ordering still wins on mean."""
        from repro.workload.fanout import FixedFanout

        fcfs = mean_rct("fcfs", load=0.8, fanout=FixedFanout(k=1))
        sbf = mean_rct("sbf", load=0.8, fanout=FixedFanout(k=1))
        assert sbf < fcfs

    def test_bimodal_mix_amplifies_gains(self):
        fanout = BimodalFanout(small=2, large=32, p_large=0.1)
        fcfs = mean_rct("fcfs", load=0.8, fanout=fanout)
        das = mean_rct("das", load=0.8, fanout=fanout)
        assert 1.0 - das / fcfs > 0.4


class TestFairness:
    def test_das_tail_not_catastrophically_worse_than_fcfs_median_regime(self):
        """Size-based schedulers trade tail for mean; DAS's aging bounds
        the damage: p999 stays within two orders of magnitude of FCFS."""
        config_fcfs = paper_config("fcfs", load=0.8)
        config_das = paper_config("das", load=0.8)
        sim = SimulationConfig(max_requests=6000)
        fcfs = run_cluster(config_fcfs, sim).summary()
        das = run_cluster(config_das, sim).summary()
        assert das.p999 < fcfs.p999 * 100


class TestDeterminism:
    def test_full_run_bitwise_reproducible(self):
        a = run_cluster(paper_config("das"), SimulationConfig(max_requests=2000))
        b = run_cluster(paper_config("das"), SimulationConfig(max_requests=2000))
        assert list(a.rcts()) == list(b.rcts())

    def test_scheduler_change_keeps_workload_fixed(self):
        """Same seed, different scheduler: identical request populations."""
        a = run_cluster(paper_config("fcfs"), SimulationConfig(max_requests=2000))
        b = run_cluster(paper_config("das"), SimulationConfig(max_requests=2000))
        ids_a = sorted(r.request_id for r in a.collector.records)
        ids_b = sorted(r.request_id for r in b.collector.records)
        assert ids_a == ids_b
        arrivals_a = sorted(r.arrival_time for r in a.collector.records)
        arrivals_b = sorted(r.arrival_time for r in b.collector.records)
        assert arrivals_a == arrivals_b
