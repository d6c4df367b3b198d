"""Retry-path edge cases: late originals, budget exhaustion, routing.

Complements ``test_faults.py`` (which covers the happy retry path) with
the corner cases the fault subsystem leans on: duplicate suppression
when a slow original answers after its retry, what happens when the
retry budget runs out against a *crashed* (not merely paused) server,
and multi-hop routing down the preference list when several replicas
are dark at once.  (The server's own pause semantics are unit-tested in
``test_server.py``.)
"""

from repro.faults import Crash, DelaySpike, FaultPlan, Pause
from repro.kvstore.cluster import Cluster
from repro.kvstore.config import SimulationConfig

from tests.conftest import small_config


def retry_config(**overrides):
    return small_config(
        load=0.3,
        seed=9,
        replication_factor=overrides.pop("replication_factor", 2),
        op_timeout=overrides.pop("op_timeout", 0.02),
        max_retries=overrides.pop("max_retries", 2),
        **overrides,
    )


def slow_server_config(**overrides):
    """Server 0 answers everything ~10ms late: slow but alive, so its
    originals regularly lose the race against their own retries."""
    plan = FaultPlan((DelaySpike(at=0.0, until=100.0, extra=0.01, servers=(0,)),))
    return retry_config(
        op_timeout=overrides.pop("op_timeout", 0.005),
        fault_plan=plan,
        **overrides,
    )


class TestLateOriginalDedup:
    def test_late_original_after_successful_retry_is_ignored(self):
        config = slow_server_config(max_retries=1)
        cluster = Cluster(config)
        result = cluster.run(SimulationConfig(max_requests=300))
        assert sum(c.timeouts_observed for c in cluster.clients) > 0
        assert sum(c.retries_sent for c in cluster.clients) > 0
        assert result.requests_completed == 300
        # completed counts requests, not responses: the late originals
        # that trickled in after the retry answered did not double count.
        assert sum(c.requests_completed for c in cluster.clients) == 300

    def test_late_original_leaves_no_client_state_behind(self):
        """Whichever answer loses the race must clear out without leaking
        timers, attempt counters, or hedge bookkeeping."""
        config = slow_server_config(max_retries=1)
        cluster = Cluster(config)
        cluster.run(SimulationConfig(max_requests=300))
        for client in cluster.clients:
            assert not client._attempts
            assert not client._op_timers
            assert not client._hedged
        # Duplicates found their timer already poisoned; only the winning
        # response of each op may cancel, so cancellations stay bounded by
        # wins even though responses outnumber them.
        cancelled = sum(c.timers_cancelled for c in cluster.clients)
        assert cancelled > 0


class TestBudgetExhaustion:
    def test_crash_with_single_replica_loses_requests(self):
        """Against a crashed server with no other replica, retries burn
        out and the dropped originals never answer: the request is lost
        (an outage would merely delay it)."""
        plan = FaultPlan((Crash(0, at=0.1),))  # never recovers
        config = retry_config(
            replication_factor=1, max_retries=1, fault_plan=plan
        )
        cluster = Cluster(config)
        result = cluster.run(SimulationConfig(duration=0.6, warmup_fraction=0.0))
        assert cluster.servers[0].ops_dropped > 0
        assert result.requests_completed < result.requests_sent
        timeouts = sum(c.timeouts_observed for c in cluster.clients)
        retries = sum(c.retries_sent for c in cluster.clients)
        # The budget caps retries strictly below observed timeouts: the
        # last timeout of each doomed op finds the budget empty.
        assert 0 < retries < timeouts


class TestPreferenceListRouting:
    def test_retry_walks_past_multiple_dark_replicas(self):
        """With the first two replicas of some keys both out, the second
        retry must reach the third preference-list entry — no completed
        request waits for the outage to lift."""
        config = retry_config(
            replication_factor=3,
            fault_plan=FaultPlan(
                (Pause(0, at=0.05, until=0.9), Pause(1, at=0.05, until=0.9))
            ),
        )
        cluster = Cluster(config)
        result = cluster.run(SimulationConfig(duration=1.0, warmup_fraction=0.0))
        assert sum(c.retries_sent for c in cluster.clients) > 0
        served_dark = cluster.servers[0].ops_served + cluster.servers[1].ops_served
        served_lit = sum(
            s.ops_served for sid, s in cluster.servers.items() if sid > 1
        )
        assert served_lit > served_dark
        # Every request that completed did so well before the windows end.
        assert result.summary().maximum < 0.85
