"""Unit tests for the network models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.faults.plan import DelaySpike, LinkFaults, PacketLoss, Partition
from repro.kvstore.network import UniformLatencyNetwork
from repro.sim.core import NORMAL, Environment


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


# ----------------------------------------------------------------------
# send_batch == the same messages sent one send() at a time
# ----------------------------------------------------------------------
SERVERS = 4

link_faults = st.one_of(
    st.none(),
    st.builds(
        DelaySpike,
        at=st.just(0.0),
        until=st.just(1.0),
        extra=st.sampled_from([1e-4, 1e-3]),
        servers=st.one_of(st.none(), st.just((1, 2))),
    ),
    st.builds(
        PacketLoss,
        at=st.just(0.0),
        until=st.just(1.0),
        probability=st.sampled_from([0.3, 1.0]),
        servers=st.one_of(st.none(), st.just((0, 3))),
        seed=st.integers(0, 3),
    ),
    st.builds(
        Partition, at=st.just(0.0), until=st.just(1.0), servers=st.just((2,))
    ),
)


def network_under(env, base_delay, jitter_mean, fault):
    """A seeded network with ``fault`` (a plan entry, or None) switched on."""
    net = UniformLatencyNetwork(
        env,
        base_delay=base_delay,
        jitter_mean=jitter_mean,
        rng=np.random.default_rng(42) if jitter_mean > 0 else None,
    )
    net.faults = LinkFaults()
    if fault is not None:
        net.faults.start(fault)
    return net


@settings(max_examples=150, deadline=None)
@given(
    base_delay=st.sampled_from([0.0, 1e-3]),
    jitter_mean=st.sampled_from([0.0, 5e-4]),
    fault=link_faults,
    batch=st.lists(
        st.tuples(st.integers(0, SERVERS - 1), st.integers(0, 64)), max_size=12
    ),
)
def test_send_batch_matches_one_send_per_message(base_delay, jitter_mean, fault, batch):
    def deliveries(use_batch):
        env = Environment()
        net = network_under(env, base_delay, jitter_mean, fault)
        log = []

        def handler_for(sid):
            return lambda payload: log.append((env.now, sid, payload))

        def mark(name):
            # Unrelated entries for the instant a no-jitter message lands:
            # the batch must keep its place among them.
            env._schedule(log.append, name, base_delay, NORMAL)

        src = ("client", 0)
        mark("before")
        if use_batch:
            net.send_batch(
                src,
                [
                    (("server", sid), i, handler_for(sid), size)
                    for i, (sid, size) in enumerate(batch)
                ],
            )
        else:
            for i, (sid, size) in enumerate(batch):
                net.send(src, ("server", sid), i, handler_for(sid), size_bytes=size)
        mark("after")
        env.run()
        return log, net.messages_sent, net.bytes_sent, net.messages_dropped

    assert deliveries(use_batch=True) == deliveries(use_batch=False)


def test_send_batch_shares_one_kernel_entry_per_equal_delay_run(env):
    net = UniformLatencyNetwork(env, base_delay=1e-3)
    net.faults = LinkFaults()
    net.faults.start(DelaySpike(at=0.0, until=1.0, extra=1e-4, servers=(1,)))
    received = []
    # Delays by destination: 0 -> base, 1 -> base + spike.
    net.send_batch(
        ("client", 0),
        [(("server", sid), i, received.append, 0) for i, sid in enumerate([0, 0, 1, 0, 0, 0])],
    )
    assert env.events_scheduled == 3  # [0, 0], [1], [0, 0, 0]
    env.run()
    assert received == [0, 1, 3, 4, 5, 2]


def test_send_batch_rejects_a_negative_delay(env):
    # A jittered network asks ``delay`` per message (a constant one never
    # does: its messages all take ``base_delay``).
    class Backwards(UniformLatencyNetwork):
        def delay(self, src, dst):
            return -1.0

    net = Backwards(env, jitter_mean=1e-3, rng=np.random.default_rng(0))
    with pytest.raises(ConfigError, match="negative delay"):
        net.send_batch("a", [("b", None, id, 0)])
