"""Lane routing, the weighted-fair dispatcher, and the laned policy."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.kvstore.cluster import run_cluster
from repro.kvstore.config import SimulationConfig
from repro.runtime.scheduling import QueuedOp
from repro.schedulers.registry import create_policy
from repro.sharding import LARGE, SMALL, SizeLaneQueue

from tests.conftest import small_config


def make_queue(**params) -> SizeLaneQueue:
    policy = create_policy("laned", inner="fcfs", **params)
    return policy.make_queue()


def op(size: int, demand: float = 1.0) -> QueuedOp:
    return QueuedOp(key=f"k{size}", demand=demand, size=size)


SMALL_OP = 512          # below every cutoff used here
LARGE_OP = 1 << 20      # above every cutoff used here


class TestRouting:
    def test_routes_by_size_and_stamps_lane(self):
        queue = make_queue(adaptive_cutoff=False)
        small, large = op(SMALL_OP), op(LARGE_OP)
        queue.push(small, 0.0)
        queue.push(large, 0.0)
        assert small.tag["lane"] == SMALL
        assert large.tag["lane"] == LARGE
        assert queue.lane_length(SMALL) == 1
        assert queue.lane_length(LARGE) == 1
        assert queue.routed == {SMALL: 1, LARGE: 1}
        assert len(queue) == 2
        assert queue.queued_demand == pytest.approx(2.0)

    def test_small_lane_never_holds_a_large_op(self):
        # The structural form of the routing invariant: a small op can
        # never be queued behind a large one because no large op is ever
        # in the small lane's queue.
        queue = make_queue(adaptive_cutoff=False)
        rng = np.random.default_rng(3)
        for _ in range(500):
            queue.push(op(LARGE_OP if rng.random() < 0.3 else SMALL_OP), 0.0)
        small_n, large_n = queue.lane_length(SMALL), queue.lane_length(LARGE)
        assert small_n + large_n == len(queue)
        drained = [queue.pop(0.0) for _ in range(len(queue))]
        assert sum(1 for o in drained if o.tag["lane"] == SMALL) == small_n
        assert all(
            (o.size <= 8192.0) == (o.tag["lane"] == SMALL) for o in drained
        )

    def test_cutoff_adapts_from_pushed_sizes(self):
        queue = make_queue(cutoff_quantile=0.97)
        assert queue.cutoff == 8192.0  # the initial cutoff
        rng = np.random.default_rng(5)
        for _ in range(512):
            pushed = op(LARGE_OP if rng.random() < 0.02 else SMALL_OP)
            queue.push(pushed, 0.0)
            queue.pop(0.0)
        assert queue.cutoff == SMALL_OP
        probe = op(LARGE_OP)
        queue.push(probe, 0.0)
        assert probe.tag["lane"] == LARGE

    def test_invalid_share_rejected(self):
        for share in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ConfigError):
                make_queue(small_share=share)


class TestWeightedFairDispatch:
    def test_work_conserving_single_lane(self):
        # Only larges queued: they are served back to back — a lane
        # share is a weight, not a throttle.
        queue = make_queue(adaptive_cutoff=False)
        for _ in range(10):
            queue.push(op(LARGE_OP, demand=10.0), 0.0)
        lanes = [queue.pop(0.0).tag["lane"] for _ in range(10)]
        assert lanes == [LARGE] * 10

    def test_share_bounds_large_interference(self):
        # Both lanes backlogged at small_share=0.9: larges may take at
        # most ~10% of dispatched demand, so the first large comes out
        # almost immediately (work conservation / no starvation) and the
        # second must wait out ~9x its demand in smalls.
        queue = make_queue(small_share=0.9, adaptive_cutoff=False)
        for _ in range(200):
            queue.push(op(SMALL_OP, demand=1.0), 0.0)
        for _ in range(5):
            queue.push(op(LARGE_OP, demand=10.0), 0.0)
        order = [queue.pop(0.0).tag["lane"] for _ in range(205)]
        first_large = order.index(LARGE)
        second_large = order.index(LARGE, first_large + 1)
        assert first_large <= 2
        # Credit catch-up: 10 demand at share 0.1 costs ~100 normalized,
        # small ops at share 0.9 repay ~1.11 each -> ~90 smalls between
        # consecutive larges.
        assert second_large - first_large >= 80
        # Fairness bound over any backlogged prefix: large demand stays
        # within its share (+ one op of slack per WFQ).
        small_demand = large_demand = 0.0
        for lane in order[:180]:  # both lanes backlogged throughout
            if lane == SMALL:
                small_demand += 1.0
            else:
                large_demand += 10.0
            assert large_demand <= (1.0 / 9.0) * small_demand + 10.0

    def test_idle_credit_is_not_banked(self):
        # A long small-only stretch must not let a later large burst
        # monopolize the server: the waking lane's credit is clamped
        # forward to the busy lane's progress.
        queue = make_queue(small_share=0.5, adaptive_cutoff=False)
        for _ in range(100):
            queue.push(op(SMALL_OP, demand=1.0), 0.0)
            queue.pop(0.0)
        # Large lane was idle the whole time; now both arrive together.
        for _ in range(10):
            queue.push(op(LARGE_OP, demand=1.0), 0.0)
        for _ in range(10):
            queue.push(op(SMALL_OP, demand=1.0), 0.0)
        first_four = [queue.pop(0.0).tag["lane"] for _ in range(4)]
        # 50/50 split over equal demands: strict alternation, not a
        # large burst repaying 100 ops of banked idle time.
        assert first_four == [SMALL, LARGE, SMALL, LARGE]

    def test_ledger_tracks_dispatch(self):
        queue = make_queue(small_share=0.5, adaptive_cutoff=False)
        queue.push(op(SMALL_OP, demand=2.0), 0.0)
        queue.push(op(LARGE_OP, demand=3.0), 0.0)
        while len(queue):
            queue.pop(0.0)
        assert queue.served == {SMALL: 1, LARGE: 1}
        assert queue.consumed[SMALL] == pytest.approx(2.0)
        assert queue.consumed[LARGE] == pytest.approx(3.0)


class TestClusterIntegration:
    def test_laned_cluster_runs_and_reports_lane_stats(self):
        config = small_config(
            scheduler="laned",
            load=0.6,
            value_size=1024,
            scheduler_params={
                "inner": "das",
                "small_share": 0.8,
                "adaptive_cutoff": False,
            },
        )
        result = run_cluster(config, SimulationConfig(max_requests=400))
        assert result.requests_completed == 400
        assert result.lanes, "laned run must export per-server lane stats"
        for stats in result.lanes.values():
            assert stats["cutoff"] == 8192.0
            shares = {
                lane: block["share"] for lane, block in stats["lanes"].items()
            }
            assert shares == {SMALL: pytest.approx(0.8), LARGE: pytest.approx(0.2)}
        # Fixed 1 KiB values sit below the cutoff: everything routes small.
        assert all(
            s["lanes"][LARGE]["routed"] == 0 for s in result.lanes.values()
        )
        served = sum(s["lanes"][SMALL]["served"] for s in result.lanes.values())
        assert served > 0
        assert "lanes" in result.metrics_snapshot()

    def test_unlaned_cluster_has_empty_lane_stats(self):
        result = run_cluster(
            small_config(scheduler="das"), SimulationConfig(max_requests=200)
        )
        assert result.lanes == {}
