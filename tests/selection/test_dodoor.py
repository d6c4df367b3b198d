"""Property tests for Dodoor-style selection and control-plane accounting.

The two properties the X5 family rests on: a cache fed by fresh reports
routes to the least-loaded sample, and a cache that has expired (or was
never filled) degrades to *uniform random* — never a crash, never a pin
on one server.  Expiry itself must be deterministic under the simulated
clock: the staleness check compares plain floats, so the same feedback
timeline always expires at the same instant.
"""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.kvstore.items import Feedback
from repro.selection import (
    CONTROL_MESSAGE_KINDS,
    DodoorPolicy,
    create_selection_policy,
    selection_policy_needs,
)

CANDIDATES = (3, 7, 11, 15)


def feedback(server_id, queued_work=0.0, t=0.0):
    return Feedback(
        server_id=server_id,
        queued_work=queued_work,
        queue_length=int(queued_work * 10),
        rate_sample=1.0,
        timestamp=t,
    )


def fresh_policy(seed=0, **kwargs):
    return DodoorPolicy(np.random.default_rng(seed), **kwargs)


class TestConstruction:
    def test_registry_declares_needs(self):
        needs = selection_policy_needs("dodoor")
        assert needs.rng
        assert needs.load_reports

    def test_registry_builds_policy(self):
        policy = create_selection_policy(
            "dodoor", rng=np.random.default_rng(0), max_staleness=0.1
        )
        assert policy.name == "dodoor"
        assert policy.max_staleness == 0.1

    def test_invalid_params(self):
        with pytest.raises(ConfigError, match="rng"):
            DodoorPolicy(None)
        with pytest.raises(ConfigError, match="max_staleness"):
            fresh_policy(max_staleness=0.0)


class TestFreshCache:
    def test_picks_least_loaded_of_sample(self):
        policy = fresh_policy()
        for sid, load in zip(CANDIDATES, (0.5, 0.1, 0.9, 0.7)):
            policy.observe_feedback(feedback(sid, queued_work=load), now=0.0)
        # Two candidates: the sample is both of them.
        assert policy.select("k", (3, 7), 1e-3) == 7
        assert policy.select("k", (11, 15), 1e-3) == 15

    def test_stale_entries_are_skipped(self):
        policy = fresh_policy(max_staleness=0.01)
        policy.observe_feedback(feedback(3, queued_work=0.0), now=0.0)
        policy.observe_feedback(feedback(7, queued_work=5.0), now=1.0)
        # Server 3's report has long expired; only 7 is fresh.
        assert policy.select("k", (3, 7), 1.005) == 7

    def test_inflight_nudge_breaks_reported_ties(self):
        policy = fresh_policy()
        for sid in CANDIDATES:
            policy.observe_feedback(feedback(sid, queued_work=1.0), now=0.0)
        policy.on_dispatch(3, 0.0)
        # All reported loads equal: the pick avoids the server this
        # client already has a request in flight on.
        assert policy.select("k", (3, 7), 1e-3) == 7


class TestExpiry:
    def test_expiry_boundary_is_deterministic(self):
        policy = fresh_policy(max_staleness=0.02)
        policy.observe_feedback(feedback(3, queued_work=1.0), now=0.0)
        policy.observe_feedback(feedback(7, queued_work=2.0), now=0.01)
        # Exactly at the bound server 3's entry is still valid (>
        # comparison), so its lower load wins; just past it, it expired.
        assert policy.select("k", (3, 7), 0.02) == 3
        assert policy.expired_lookups == 0
        assert policy.select("k", (3, 7), 0.020000001) == 7
        assert policy.expired_lookups == 1

    def test_same_timeline_same_expiry(self):
        def run():
            policy = fresh_policy(seed=5, max_staleness=0.01)
            picks = []
            for step in range(50):
                now = step * 1e-3
                if step % 7 == 0:
                    policy.observe_feedback(
                        feedback(CANDIDATES[step % 4], queued_work=0.1), now=now
                    )
                picks.append(policy.select("k", CANDIDATES, now))
            return picks, policy.expired_lookups, policy.blind_decisions

        assert run() == run()


class TestBlindDegradation:
    def test_empty_cache_never_crashes(self):
        policy = fresh_policy()
        for i in range(100):
            assert policy.select(f"k{i}", CANDIDATES, 0.0) in CANDIDATES
        assert policy.blind_decisions == 100

    def test_empty_cache_is_uniform_random(self):
        policy = fresh_policy(seed=1)
        n = 4000
        counts = {sid: 0 for sid in CANDIDATES}
        for i in range(n):
            counts[policy.select(f"k{i}", CANDIDATES, 0.0)] += 1
        expected = n / len(CANDIDATES)
        for sid, count in counts.items():
            assert abs(count - expected) < 0.15 * expected, (
                f"server {sid} picked {count} times, expected ~{expected:.0f}"
            )

    def test_expired_cache_never_pins_one_server(self):
        policy = fresh_policy(seed=2, max_staleness=0.01)
        for sid in CANDIDATES:
            policy.observe_feedback(feedback(sid, queued_work=0.1), now=0.0)
        counts = {sid: 0 for sid in CANDIDATES}
        n = 2000
        for i in range(n):  # all entries long expired at now=10
            counts[policy.select(f"k{i}", CANDIDATES, 10.0)] += 1
        assert policy.blind_decisions == n
        assert max(counts.values()) < 0.4 * n, f"pinned: {counts}"
        assert all(count > 0 for count in counts.values())


class TestControlPlaneAccounting:
    def test_kinds_and_totals(self):
        policy = fresh_policy()
        policy.record_control_message("report", payload_bytes=40)
        policy.record_control_message("report", payload_bytes=40)
        policy.record_control_message("probe", payload_bytes=8)
        policy.record_control_message("feedback", messages=0, payload_bytes=40)
        assert policy.control_messages == {"probe": 1, "report": 2, "feedback": 0}
        assert policy.control_bytes == {"probe": 8, "report": 80, "feedback": 40}
        assert policy.control_messages_total() == 3

    def test_unknown_kind_raises(self):
        policy = fresh_policy()
        with pytest.raises(ValueError, match="unknown control message kind"):
            policy.record_control_message("gossip")

    def test_stats_surface(self):
        policy = fresh_policy()
        policy.observe_feedback(feedback(3), now=0.0)
        policy.select("k", CANDIDATES, 0.0)
        policy.record_control_message("report", payload_bytes=40)
        stats = policy.stats()
        control = stats["control_plane"]
        assert set(control["messages_sent"]) == set(CONTROL_MESSAGE_KINDS)
        assert control["messages_total"] == 1
        assert control["messages_per_decision"] == 1.0
        assert stats["cache_size"] == 1
        assert stats["reports_cached"] == 1

    def test_messages_per_decision_zero_decisions(self):
        policy = fresh_policy()
        assert policy.stats()["control_plane"]["messages_per_decision"] == 0.0


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        a, b = fresh_policy(seed=9), fresh_policy(seed=9)
        for policy in (a, b):
            for sid in CANDIDATES[:2]:
                policy.observe_feedback(feedback(sid, queued_work=0.2), now=0.0)
        seq_a = [a.select(f"k{i}", CANDIDATES, 1e-3) for i in range(50)]
        seq_b = [b.select(f"k{i}", CANDIDATES, 1e-3) for i in range(50)]
        assert seq_a == seq_b
