"""Fault injection: server pauses, operation timeouts, replica retries."""

import pytest

from repro.errors import ConfigError
from repro.faults import FaultPlan, Pause
from repro.kvstore.cluster import Cluster
from repro.kvstore.config import SimulationConfig

from tests.conftest import small_config


def paused(server_id, at, until):
    """A plan stalling one server's service loop for ``[at, until)``."""
    return FaultPlan((Pause(server_id, at=at, until=until),))


class TestConfigValidation:
    def test_outage_unknown_server_rejected(self):
        with pytest.raises(ConfigError):
            small_config(fault_plan=paused(99, 0.0, 1.0))

    def test_outage_bad_window_rejected(self):
        with pytest.raises(ConfigError):
            Pause(0, at=1.0, until=1.0)
        with pytest.raises(ConfigError):
            Pause(0, at=-1.0, until=1.0)

    def test_retries_require_timeout(self):
        with pytest.raises(ConfigError):
            small_config(max_retries=2)

    def test_bad_timeout_rejected(self):
        with pytest.raises(ConfigError):
            small_config(op_timeout=0.0)


class TestOutages:
    def test_server_serves_nothing_during_outage(self):
        config = small_config(load=0.3, fault_plan=paused(0, 0.0, 0.5))
        cluster = Cluster(config)
        cluster.run(SimulationConfig(duration=0.4))
        server = cluster.servers[0]
        assert server.ops_served == 0
        assert len(server.queue) > 0  # work piled up

    def test_queued_work_drains_after_outage(self):
        config = small_config(load=0.3, fault_plan=paused(0, 0.0, 0.2))
        cluster = Cluster(config)
        result = cluster.run(SimulationConfig(duration=1.0))
        server = cluster.servers[0]
        assert server.ops_served > 0
        # Requests touching server 0 during the pause completed late but
        # completed; nothing is lost.
        assert result.requests_completed == result.requests_sent or (
            # tail requests may still be in flight at the duration cut
            result.requests_sent - result.requests_completed < 50
        )

    def test_outage_inflates_rct_without_retries(self):
        base = small_config(load=0.3, seed=9)
        faulty = small_config(load=0.3, seed=9, fault_plan=paused(0, 0.05, 0.55))
        sim = SimulationConfig(duration=1.0, warmup_fraction=0.0)
        healthy = Cluster(base).run(sim).summary().maximum
        impaired = Cluster(faulty).run(sim).summary().maximum
        assert impaired > healthy * 5  # some request waited out the pause


class TestTimeoutsAndRetries:
    def retry_config(self, **overrides):
        return small_config(
            load=0.3,
            seed=9,
            replication_factor=2,
            op_timeout=overrides.pop("op_timeout", 0.02),
            max_retries=overrides.pop("max_retries", 2),
            **overrides,
        )

    def test_retries_route_around_outage(self):
        config = self.retry_config(fault_plan=paused(0, 0.05, 0.8))
        cluster = Cluster(config)
        result = cluster.run(SimulationConfig(duration=1.0, warmup_fraction=0.0))
        client_retries = sum(c.retries_sent for c in cluster.clients)
        assert client_retries > 0
        # With retries to the second replica, no completed request had to
        # wait for the pause to end.
        assert result.summary().maximum < 0.5

    def test_retry_metrics_zero_on_healthy_cluster(self):
        config = self.retry_config()
        cluster = Cluster(config)
        cluster.run(SimulationConfig(max_requests=200))
        assert sum(c.retries_sent for c in cluster.clients) == 0
        assert sum(c.timeouts_observed for c in cluster.clients) == 0

    def test_duplicate_responses_do_not_double_complete(self):
        """A slow (not down) server answers after the retry already did;
        the duplicate must be dropped, not complete the request twice."""
        config = small_config(
            load=0.3,
            seed=9,
            replication_factor=2,
            op_timeout=0.001,  # aggressive: originals regularly "time out"
            max_retries=1,
        )
        cluster = Cluster(config)
        result = cluster.run(SimulationConfig(max_requests=300))
        assert result.requests_completed == 300
        # completed counts requests, not responses: no double counting.
        assert sum(c.requests_completed for c in cluster.clients) == 300

    def test_retry_goes_to_next_replica(self):
        config = self.retry_config(fault_plan=paused(0, 0.0, 10.0))
        cluster = Cluster(config)
        cluster.run(SimulationConfig(duration=0.5, warmup_fraction=0.0))
        # Server 0 is paused the whole run; its replicas absorbed the work.
        served_elsewhere = sum(
            s.ops_served for sid, s in cluster.servers.items() if sid != 0
        )
        assert served_elsewhere > 0
        assert cluster.servers[0].ops_served == 0

    def test_exhausted_retry_budget_waits_for_original(self):
        # Replication 1: retries can only go back to the same (paused)
        # server, so requests complete only after the pause.
        config = small_config(
            load=0.3,
            seed=9,
            replication_factor=1,
            op_timeout=0.02,
            max_retries=1,
            fault_plan=paused(0, 0.0, 0.3),
        )
        cluster = Cluster(config)
        result = cluster.run(SimulationConfig(duration=1.0, warmup_fraction=0.0))
        assert result.summary().maximum > 0.25
