"""Unit tests for the network models."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.kvstore.network import UniformLatencyNetwork


class TestUniformNetwork:
    def test_constant_delay(self, env):
        net = UniformLatencyNetwork(env, base_delay=1e-3)
        assert net.delay("a", "b") == 1e-3

    def test_delivery_after_delay(self, env):
        net = UniformLatencyNetwork(env, base_delay=2.0)
        received = []
        net.send("a", "b", "hello", lambda p: received.append((env.now, p)))
        env.run()
        assert received == [(2.0, "hello")]

    def test_zero_delay_still_goes_through_event_queue(self, env):
        net = UniformLatencyNetwork(env, base_delay=0.0)
        received = []
        net.send("a", "b", "x", lambda p: received.append(p))
        assert received == []  # not synchronous
        env.run()
        assert received == ["x"]

    def test_message_ordering_preserved_without_jitter(self, env):
        net = UniformLatencyNetwork(env, base_delay=1e-3)
        received = []
        for i in range(5):
            net.send("a", "b", i, received.append)
        env.run()
        assert received == [0, 1, 2, 3, 4]

    def test_jitter_requires_rng(self, env):
        with pytest.raises(ConfigError):
            UniformLatencyNetwork(env, jitter_mean=1e-3)

    def test_jitter_adds_positive_delay(self, env):
        net = UniformLatencyNetwork(
            env, base_delay=1e-3, jitter_mean=1e-3, rng=np.random.default_rng(0)
        )
        delays = [net.delay("a", "b") for _ in range(100)]
        assert all(d >= 1e-3 for d in delays)
        assert np.mean(delays) == pytest.approx(2e-3, rel=0.3)

    def test_counters(self, env):
        net = UniformLatencyNetwork(env)
        net.send("a", "b", None, lambda p: None, size_bytes=100)
        net.send("a", "b", None, lambda p: None, size_bytes=50)
        assert net.messages_sent == 2
        assert net.bytes_sent == 150

    def test_negative_base_delay_rejected(self, env):
        with pytest.raises(ConfigError):
            UniformLatencyNetwork(env, base_delay=-1)
