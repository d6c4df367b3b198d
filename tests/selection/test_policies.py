"""Property tests for the replica-selection policies.

These are the conformance tests the CI ``smoke (selection)`` matrix
entry runs: distributional properties of the blind policies, the never-pick-
the-worst guarantee of power-of-d, staleness handling in Tars and the
Prequal probe pool, and the bookkeeping shared through the base class.
"""

import math

import numpy as np
import pytest

from repro.core.estimator import ServerEstimates
from repro.errors import ConfigError
from repro.kvstore.items import Feedback
from repro.selection import (
    C3Policy,
    PowerOfDPolicy,
    PrequalPolicy,
    PrimaryPolicy,
    RandomPolicy,
    RoundRobinPolicy,
    SELECTION_POLICY_NAMES,
    TarsPolicy,
    create_selection_policy,
    selection_policy_needs,
)
from repro.selection.prequal import MAX_AGE, POOL_SIZE
from repro.selection.scored import TARS_TAU

CANDIDATES = (3, 7, 11)


def feedback(server_id, queued_work=0.0, queue_length=0, rate=1.0, t=0.0):
    return Feedback(
        server_id=server_id,
        queued_work=queued_work,
        queue_length=queue_length,
        rate_sample=rate,
        timestamp=t,
    )


def estimates_with(loads, t=0.0, **kwargs):
    """ServerEstimates primed with one feedback per ``{sid: queued_work}``."""
    est = ServerEstimates(**kwargs)
    for sid, work in loads.items():
        est.observe(feedback(sid, queued_work=work, queue_length=int(work * 10), t=t))
    return est


class TestRegistry:
    def test_all_names_constructible(self):
        rng = np.random.default_rng(0)
        est = ServerEstimates()
        for name in SELECTION_POLICY_NAMES:
            policy = create_selection_policy(name, rng=rng, estimates=est)
            assert policy.name == name

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigError, match="unknown selection policy"):
            selection_policy_needs("nearest")
        with pytest.raises(ConfigError, match="unknown selection policy"):
            create_selection_policy("nearest")

    def test_missing_rng_raises(self):
        with pytest.raises(ConfigError, match="rng"):
            create_selection_policy("random")
        with pytest.raises(ConfigError, match="rng"):
            create_selection_policy("power_of_d")

    def test_missing_estimates_raises(self):
        for name in ("least_estimated_work", "c3", "tars"):
            with pytest.raises(ConfigError):
                create_selection_policy(name, rng=np.random.default_rng(0))

    def test_least_estimated_work_reads_estimates(self):
        est = estimates_with({3: 0.5, 7: 0.0, 11: 0.9})
        policy = create_selection_policy("least_estimated_work", estimates=est)
        assert policy.select("k", CANDIDATES, now=0.0) == 7

    def test_params_forwarded(self):
        policy = create_selection_policy(
            "dodoor", rng=np.random.default_rng(0), max_staleness=0.5
        )
        assert policy.max_staleness == 0.5


class TestBaseBookkeeping:
    def test_single_candidate_short_circuit(self):
        policy = PrimaryPolicy()
        assert policy.select("k", (9,), now=0.0) == 9
        assert policy.decisions == 1
        assert policy.picks == {9: 1}

    def test_inflight_accounting(self):
        policy = PrimaryPolicy()
        policy.on_dispatch(4)
        policy.on_dispatch(4)
        policy.on_dispatch(5)
        assert policy.inflight_of(4) == 2
        policy.on_response(4, latency=0.001)
        assert policy.inflight_of(4) == 1
        # Never goes negative even on spurious responses.
        policy.on_response(6)
        assert policy.inflight_of(6) == 0

    def test_stats_shape(self):
        policy = RoundRobinPolicy()
        for _ in range(4):
            policy.select("k", CANDIDATES, now=0.0)
        stats = policy.stats()
        assert stats["policy"] == "round_robin"
        assert stats["decisions"] == 4
        assert sum(stats["picks"].values()) == 4


class TestBlindPolicies:
    def test_primary_always_first(self):
        policy = PrimaryPolicy()
        for _ in range(10):
            assert policy.select("k", CANDIDATES, now=0.0) == CANDIDATES[0]

    def test_random_uniformity(self):
        """Each replica gets ~1/3 of picks: bounded chi-square over 6000."""
        policy = RandomPolicy(np.random.default_rng(1234))
        n = 6000
        for i in range(n):
            policy.select(f"k{i % 50}", CANDIDATES, now=0.0)
        expected = n / len(CANDIDATES)
        chi2 = sum(
            (policy.picks.get(sid, 0) - expected) ** 2 / expected
            for sid in CANDIDATES
        )
        # 99.9th percentile of chi-square with 2 dof is ~13.8.
        assert chi2 < 13.8, f"picks suspiciously non-uniform: {policy.picks}"

    def test_random_covers_all_candidates(self):
        policy = RandomPolicy(np.random.default_rng(7))
        for _ in range(200):
            policy.select("k", CANDIDATES, now=0.0)
        assert set(policy.picks) == set(CANDIDATES)

    def test_round_robin_rotates_per_key(self):
        policy = RoundRobinPolicy()
        seq = [policy.select("a", CANDIDATES, now=0.0) for _ in range(6)]
        assert seq == [3, 7, 11, 3, 7, 11]
        # A different key starts its own rotation from the beginning.
        assert policy.select("b", CANDIDATES, now=0.0) == 3

    def test_round_robin_exact_balance(self):
        policy = RoundRobinPolicy()
        for _ in range(30):
            policy.select("k", CANDIDATES, now=0.0)
        assert all(policy.picks[sid] == 10 for sid in CANDIDATES)


class TestPowerOfD:
    def test_never_picks_strictly_worst(self):
        """With d >= 2 the strictly-worst replica is never chosen."""
        est = estimates_with({3: 0.1, 7: 0.2, 11: 5.0}, **{"drain": False})
        policy = PowerOfDPolicy(np.random.default_rng(5), estimates=est)
        for _ in range(500):
            assert policy.select("k", CANDIDATES, now=0.0) != 11

    def test_sampling_decorrelates(self):
        """Both non-worst replicas are picked (it is not argmin-everything)."""
        est = estimates_with({3: 0.1, 7: 0.2, 11: 5.0}, **{"drain": False})
        policy = PowerOfDPolicy(np.random.default_rng(5), estimates=est)
        for _ in range(500):
            policy.select("k", CANDIDATES, now=0.0)
        assert policy.picks.get(3, 0) > 0
        assert policy.picks.get(7, 0) > 0

    def test_falls_back_to_inflight_without_estimates(self):
        policy = PowerOfDPolicy(np.random.default_rng(5))
        policy.on_dispatch(3)
        policy.on_dispatch(3)
        policy.on_dispatch(7)
        # d == n: both sampled, least inflight (7, with one) wins.
        assert policy.select("k", (3, 7), now=0.0) == 7


class TestScoredPolicies:
    def test_c3_prefers_short_queue(self):
        est = estimates_with({3: 2.0, 7: 0.01, 11: 2.0}, **{"drain": False})
        policy = C3Policy(est)
        assert policy.select("k", CANDIDATES, now=0.0) == 7

    def test_c3_cubic_penalty_beats_latency(self):
        """A long queue repels even when the short-queue server is slower."""
        est = ServerEstimates(drain=False)
        est.observe(feedback(3, queued_work=5.0, queue_length=50, rate=1.0))
        est.observe(feedback(7, queued_work=0.01, queue_length=1, rate=0.5))
        policy = C3Policy(est)
        policy.on_response(7, latency=0.004)  # slower observed latency...
        policy.on_response(3, latency=0.001)
        assert policy.select("k", (3, 7), now=0.0) == 7

    def test_tars_discounts_stale_observations(self):
        """A stale 'busy' reading decays toward the mean; a fresh one wins."""
        est = ServerEstimates(drain=False)
        est.observe(feedback(3, queued_work=1.0, t=0.0))   # stale busy
        est.observe(feedback(7, queued_work=0.6, t=10.0))  # fresh medium
        policy = TarsPolicy(est)
        # At t=10, server 3's reading is 10s old: freshness ~ exp(-200) -> 0,
        # so its score collapses to the candidate mean (0.8) while 7 keeps
        # its fresh 0.6 -> 7 wins despite 3's *drainless* estimate being 1.0.
        assert policy.select("k", (3, 7), now=10.0) == 7
        # Flip: make 3's reading fresh and light -> 3 wins.
        est.observe(feedback(3, queued_work=0.1, t=10.0))
        assert policy.select("k", (3, 7), now=10.0) == 3

    def test_tars_rate_division_penalizes_slow_servers(self):
        est = ServerEstimates(drain=False)
        est.observe(feedback(3, queued_work=0.0, rate=0.2, t=0.0))
        est.observe(feedback(7, queued_work=0.0, rate=1.0, t=0.0))
        policy = TarsPolicy(est)
        assert policy.select("k", (3, 7), now=0.0) == 7

    def test_tars_unheard_servers_use_population_mean(self):
        est = ServerEstimates(drain=False)
        est.observe(feedback(3, queued_work=2.0, t=0.0))
        policy = TarsPolicy(est)
        # 7 was never heard from: freshness 0 -> mean wait; 3's fresh busy
        # reading is above the mean, so the unknown server is preferred.
        assert policy.select("k", (3, 7), now=0.0) == 7


class TestPrequal:
    def test_probe_pool_staleness_expiry(self):
        policy = PrequalPolicy()
        policy.add_probe(3, rif=1, latency=0.001, now=0.0)
        policy.add_probe(7, rif=2, latency=0.002, now=0.1)
        assert len(policy.pool) == 2
        # Selection at MAX_AGE + 0.5 expires both.
        policy.select("k", CANDIDATES, now=MAX_AGE + 0.5)
        assert len(policy.pool) == 0
        assert policy.probes_expired == 2

    def test_pool_bounded_oldest_evicted(self):
        policy = PrequalPolicy()
        for i in range(POOL_SIZE + 2):
            policy.add_probe(i, rif=i, latency=0.0, now=0.0)
        assert len(policy.pool) == POOL_SIZE
        assert [p.server_id for p in policy.pool] == list(range(2, POOL_SIZE + 2))

    def test_cold_pick_lowest_latency(self):
        policy = PrequalPolicy()
        policy.add_probe(3, rif=1, latency=0.005, now=0.0)
        policy.add_probe(7, rif=2, latency=0.001, now=0.0)
        policy.add_probe(11, rif=50, latency=0.0001, now=0.0)
        for sid in (20, 21):  # non-candidates that fill out the pool
            policy.add_probe(sid, rif=1, latency=0.5, now=0.0)
        # The pool's 0.75 quantile RIF is 2: server 11 sits far above it
        # -> hot, so its tiny latency does not matter; among the cold, 7
        # wins on latency.
        assert policy.select("k", CANDIDATES, now=0.0) == 7

    def test_all_hot_picks_lowest_rif(self):
        policy = PrequalPolicy()
        policy.add_probe(3, rif=40, latency=0.001, now=0.0)
        policy.add_probe(7, rif=30, latency=0.009, now=0.0)
        policy.add_probe(11, rif=50, latency=0.0001, now=0.0)
        for sid in range(100, 109):  # nine rif=1 probes lower the threshold
            policy.add_probe(sid, rif=1, latency=0.5, now=0.0)
        # The pool's 0.75 quantile RIF is 1: candidates 3/7/11 are all
        # above it -> all hot -> lowest RIF (7).
        assert policy.select("k", CANDIDATES, now=0.0) == 7

    def test_feedback_funnel_feeds_pool(self):
        policy = PrequalPolicy()
        policy.observe_feedback(
            feedback(3, queued_work=0.2, queue_length=4), now=1.0
        )
        assert policy.probes_added == 1
        probe = policy.pool[0]
        assert (probe.server_id, probe.rif, probe.latency) == (3, 4.0, 0.2)

    def test_unprobed_candidates_explored(self):
        """A server with no probe is cold with zero charge: exploration."""
        policy = PrequalPolicy()
        policy.add_probe(3, rif=5, latency=0.004, now=0.0)
        policy.add_probe(7, rif=5, latency=0.004, now=0.0)
        assert policy.select("k", CANDIDATES, now=0.0) == 11


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        """Policies never read a clock: same inputs -> same picks."""
        def run(seed):
            rng = np.random.default_rng(seed)
            policy = PowerOfDPolicy(rng, estimates=estimates_with({3: 0.3, 7: 0.1, 11: 0.7}))
            return [policy.select(f"k{i}", CANDIDATES, now=i * 0.01) for i in range(100)]

        assert run(99) == run(99)
        assert run(99) != run(100)  # and the rng actually matters

    def test_tie_breaks_are_lowest_server_id(self):
        est = ServerEstimates(drain=False)  # all zeros -> full tie
        for policy in (
            TarsPolicy(est),
            C3Policy(est),
            create_selection_policy("least_estimated_work", estimates=est),
        ):
            assert policy.select("k", (11, 7, 3), now=0.0) == 3

    def test_freshness_is_exponential(self):
        est = ServerEstimates(drain=False)
        est.observe(feedback(3, queued_work=1.0, t=0.0))
        policy = TarsPolicy(est)
        assert policy._freshness(3, now=TARS_TAU) == pytest.approx(math.exp(-1.0))
        assert policy._freshness(99, now=TARS_TAU) == 0.0
