"""Unit tests for DAS's adaptive demotion multiplier ``k``.

The controller lives on :class:`~repro.core.das.DasQueue`; these tests
feed it queue-length samples directly through ``_adapt``.
"""

import random

import pytest

from repro.core.das import (
    ADAPT_INTERVAL,
    CTRL_ALPHA,
    K_INIT,
    K_MAX,
    Q_HIGH,
    Q_LOW,
    DasQueue,
)
from repro.errors import ConfigError

from tests.schedulers.helpers import make_op


def feed(queue: DasQueue, queue_length: int, samples: int) -> None:
    """One sample per adaptation interval, so every sample may adjust."""
    for t in range(samples):
        queue._adapt(queue_length, now=t * ADAPT_INTERVAL)


class TestAdjustment:
    def test_high_pressure_shrinks_k(self):
        queue = DasQueue()
        feed(queue, int(Q_HIGH) * 2, 10)
        assert queue.k < K_INIT
        assert queue.adjustments > 0

    def test_low_pressure_grows_k(self):
        queue = DasQueue()
        feed(queue, 0, 10)
        assert queue.k > K_INIT

    def test_comfort_band_is_stable(self):
        queue = DasQueue()
        feed(queue, int((Q_LOW + Q_HIGH) / 2), 10)
        assert queue.k == K_INIT
        assert queue.adjustments == 0

    def test_k_clamped_at_min(self):
        queue = DasQueue(k_min=2.0)
        feed(queue, 100, 1000)
        assert queue.k == pytest.approx(2.0)

    def test_k_clamped_at_max(self):
        queue = DasQueue()
        feed(queue, 0, 1000)
        assert queue.k == pytest.approx(K_MAX)

    def test_disabled_controller_never_moves(self):
        queue = DasQueue(adaptive=False)
        feed(queue, 100, 100)
        assert queue.k == K_INIT
        assert queue.adjustments == 0

    def test_adapt_interval_gates_adjustments(self):
        queue = DasQueue()
        queue._adapt(100, now=0.0)
        queue._adapt(100, now=ADAPT_INTERVAL / 2)  # within the interval
        assert queue.adjustments == 1
        queue._adapt(100, now=ADAPT_INTERVAL)
        assert queue.adjustments == 2

    def test_pressure_is_smoothed(self):
        queue = DasQueue(adaptive=False)
        queue._adapt(0, now=0.0)
        queue._adapt(10, now=1.0)
        assert queue.queue_pressure == pytest.approx(CTRL_ALPHA * 10)


def test_push_and_pop_sample_as_adapt_does():
    """``_push`` and ``_pop`` take their sample with ``_adapt`` written
    out: a queue driven by pushes and pops moves its pressure and ``k``
    exactly as ``_adapt`` fed the same lengths at the same times."""
    queue, reference = DasQueue(), DasQueue()
    rng = random.Random(1)
    now = 0.0
    for step in range(4000):
        now += rng.expovariate(4000.0)
        push_share = 0.7 if (step // 1000) % 2 == 0 else 0.3
        if len(queue) and rng.random() >= push_share:
            reference._adapt(len(queue), now)
            queue.pop(now)
        else:
            reference._adapt(len(queue) + 1, now)
            queue.push(make_op(demand=rng.random()), now)
        assert (queue.k, queue._pressure, queue.adjustments) == (
            reference.k,
            reference._pressure,
            reference.adjustments,
        )
    assert queue.adjustments > 10


class TestThreshold:
    def test_threshold_scales(self):
        queue = DasQueue()
        queue.push(make_op(demand=2.0), 0.0)
        assert queue.threshold == pytest.approx(queue.k * 2.0)

    def test_repr(self):
        assert "k=" in repr(DasQueue())


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k_min": 0.0},
            {"k_min": -1.0},
            {"k_min": K_INIT * 1.01},  # above the starting k
            {"k_min": K_MAX},
            {"k_min": float("inf")},
            {"k_min": float("-inf")},
            {"k_min": float("nan")},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            DasQueue(**kwargs)
