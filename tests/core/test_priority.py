"""Unit tests for DAS's ranking key, the remaining processing time."""

import pytest

from repro.core.estimator import ServerEstimates
from repro.core.das import remaining_processing_time
from repro.kvstore.items import Feedback

from tests.schedulers.helpers import make_multiget


def estimates_with(rates=None, work=None):
    view = ServerEstimates(alpha_work=1.0, alpha_rate=1.0, drain=False)
    for server_id, rate in (rates or {}).items():
        view.observe(
            Feedback(server_id, queued_work=(work or {}).get(server_id, 0.0),
                     queue_length=0, rate_sample=rate, timestamp=0.0)
        )
    return view


class TestRemainingProcessingTime:
    def test_without_estimates_is_bottleneck(self):
        request = make_multiget([(0, 1.0), (0, 2.0), (1, 2.5)])
        assert remaining_processing_time(request, 0.0, None) == pytest.approx(3.0)

    def test_slow_server_inflates_rpt(self):
        request = make_multiget([(0, 2.0), (1, 2.0)])
        view = estimates_with(rates={0: 0.5, 1: 1.0})
        # Server 0's slice takes 2.0/0.5 = 4.0 at its estimated speed.
        assert remaining_processing_time(request, 0.0, view) == pytest.approx(4.0)

    def test_fast_server_deflates_rpt(self):
        request = make_multiget([(0, 2.0)])
        view = estimates_with(rates={0: 2.0})
        assert remaining_processing_time(request, 0.0, view) == pytest.approx(1.0)

    def test_unknown_servers_use_default_rate(self):
        request = make_multiget([(5, 3.0)])
        view = estimates_with(rates={})
        assert remaining_processing_time(request, 0.0, view) == pytest.approx(3.0)

    def test_empty_request(self):
        request = make_multiget([])
        assert remaining_processing_time(request, 0.0, None) == 0.0

    def test_ignores_queued_work(self):
        # The ranking key is load-independent: a backlog at the server
        # does not inflate it.
        request = make_multiget([(0, 1.0)])
        view = estimates_with(rates={0: 1.0}, work={0: 5.0})
        assert remaining_processing_time(request, 0.0, view) == pytest.approx(1.0)

    def test_leaves_raw_bottleneck_on_request(self):
        request = make_multiget([(0, 2.0), (1, 1.0)])
        view = estimates_with(rates={0: 0.5, 1: 0.1})
        assert remaining_processing_time(request, 0.0, view) == pytest.approx(10.0)
        assert request.bottleneck == pytest.approx(2.0)
