"""Unit tests for the client-side resilience policies."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.faults.resilience import CircuitBreaker, HedgePolicy, LatencyTracker
from repro.runtime.resilience import MultigetReport, RetryPolicy


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(op_timeout=0)
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ConfigError):
            RetryPolicy(total_deadline=-1)
        with pytest.raises(ConfigError):
            RetryPolicy(backoff_factor=0.5)

    def test_first_attempt_never_waits(self):
        policy = RetryPolicy(backoff_base=0.1)
        assert policy.backoff(1, np.random.default_rng(0)) == 0.0

    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(backoff_base=0.01, backoff_factor=2.0, jitter=0.0)
        rng = np.random.default_rng(0)
        assert policy.backoff(2, rng) == pytest.approx(0.01)
        assert policy.backoff(3, rng) == pytest.approx(0.02)
        assert policy.backoff(4, rng) == pytest.approx(0.04)

    def test_jitter_shrinks_within_bounds(self):
        policy = RetryPolicy(backoff_base=0.01, jitter=0.5)
        rng = np.random.default_rng(42)
        for _ in range(100):
            pause = policy.backoff(2, rng)
            assert 0.005 <= pause <= 0.01

    def test_jitter_deterministic_given_seed(self):
        policy = RetryPolicy(backoff_base=0.01, jitter=0.5)
        a = [policy.backoff(2, np.random.default_rng(7)) for _ in range(3)]
        b = [policy.backoff(2, np.random.default_rng(7)) for _ in range(3)]
        assert a == b


class TestHedgePolicy:
    def test_fixed_threshold_wins_over_percentile(self):
        tracker = LatencyTracker()
        policy = HedgePolicy(hedge_after=0.05)
        assert policy.threshold(tracker) == 0.05

    def test_percentile_needs_samples(self):
        tracker = LatencyTracker()
        policy = HedgePolicy(percentile=95.0, min_samples=10)
        assert policy.threshold(tracker) is None
        for i in range(10):
            tracker.record(0.001 * (i + 1))
        threshold = policy.threshold(tracker)
        assert threshold is not None
        assert 0.009 <= threshold <= 0.010

    def test_validation(self):
        with pytest.raises(ConfigError):
            HedgePolicy(percentile=0)
        with pytest.raises(ConfigError):
            HedgePolicy(hedge_after=0)
        with pytest.raises(ConfigError):
            HedgePolicy(max_hedges=0)


class TestLatencyTracker:
    def test_window_wraps(self):
        tracker = LatencyTracker(window=4)
        for i in range(10):
            tracker.record(float(i))
        assert len(tracker) == 4
        # Only the last 4 samples survive.
        assert tracker.percentile(100.0) == 9.0
        assert tracker.percentile(0.0) == 6.0


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout=1.0)
        assert not breaker.record_failure(now=0.0)
        assert not breaker.record_failure(now=0.1)
        assert breaker.record_failure(now=0.2)  # third failure opens
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow(now=0.5)

    def test_success_resets_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure(now=0.0)
        breaker.record_success()
        assert not breaker.record_failure(now=0.1)
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_probe_then_close(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=0.5)
        assert breaker.record_failure(now=0.0)
        assert not breaker.allow(now=0.2)
        assert breaker.allow(now=0.6)  # probe let through
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=0.5)
        breaker.record_failure(now=0.0)
        assert breaker.allow(now=0.6)
        assert breaker.record_failure(now=0.7)  # probe failed -> reopen
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow(now=0.8)


class TestMultigetReport:
    def test_complete_flag(self):
        report = MultigetReport(requested=3, fetched=3)
        assert report.complete
        report.failed_servers[0] = "timeout"
        assert not report.complete
