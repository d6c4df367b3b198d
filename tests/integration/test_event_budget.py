"""Kernel entries per request, counted — not timed.

With no jitter a request costs one arrival, one delivery entry for its
whole fan-out (``NetworkModel.send_batch``), and per operation one
service completion and one response delivery: ``2·ops + 2``.  The
benchmark's traced ``C.kernel_events_per_req`` reports the same count,
but only when someone runs it; this fails in CI the moment a change puts
an entry per operation (or per message) back.
"""

from repro import Cluster, SimulationConfig
from tests.integration.test_sim_golden import cell

REQUESTS = 400


def test_kernel_entries_per_request_stay_within_budget():
    cluster = Cluster(cell())
    result = cluster.run(SimulationConfig(max_requests=REQUESTS))
    assert result.requests_completed == REQUESTS
    mean_ops = sum(s.ops_served for s in cluster.servers.values()) / REQUESTS
    per_request = cluster.env.events_scheduled / REQUESTS
    # The half entry of slack covers the start-up entries and the stop event.
    assert 2 * mean_ops < per_request <= 2 * mean_ops + 2.5
