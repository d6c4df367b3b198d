"""Python calls per served operation, counted — not timed.

A simulated cell's cost is per operation: each op is delivered, queued,
served, answered and folded into its client's estimates.  This counts
the ``sys.setprofile`` ``"call"`` events of code under ``src/repro``
(generated ``__init__``s included, since they are per-object calls)
over two golden cells and divides by the operations served, so a change
that puts a wrapper, a property or a message object back on that path
fails here even when no clock would notice.

Recorded figures (Python 3.11): ``open-das`` 18.4 calls per served op
(43.0 before the op path was flattened, 19.0 before one function ranked
requests for both halves, 18.6 before DAS's queue became a plain keyed
heap), ``dodoor-reports`` 25.9 (63.3, then 28.2 before a reply reached
the selection policy in one call, 26.1 before the keyed heap; each read
also makes its replica decision and feeds the load cache).  The budget is
each figure plus the slack below.

The runtime's cost is per request: a multiget's keys are routed and
tagged, one frame per touched server is encoded, decoded, queued, served
and answered, and the replies are folded back in.  The runtime case
counts the same calls per multiget over a four-server ``LocalCluster``
(no emulated service time) driven by one closed-loop caller, so no two
replies share a socket read, and the count is the same from run to run.
Recorded: 150.9 calls per multiget (367.3 before the executor was served
from loop callbacks and the request path was flattened, 152.9 before
DAS's queue became a plain keyed heap).
"""

import asyncio
import contextlib
import os
import random
import sys
from typing import Iterator, List

import pytest

import repro
from repro.kvstore.cluster import Cluster
from repro.runtime import LocalCluster
from tests.integration.test_sim_golden import CELLS

#: Calls per served op, as recorded above, plus one call of slack.
BUDGET = {"open-das": 18.4 + 1.0, "dodoor-reports": 25.9 + 1.0}

#: Calls per multiget, as recorded above, plus eight calls of slack (about
#: one frame's encode-to-decode path).
RUNTIME_BUDGET = 150.9 + 8.0
#: The runtime plan: multigets of this many 256 B keys out of a small
#: preloaded keyspace, counted after a warm-up.
RUNTIME_FANOUT = 8
RUNTIME_REQUESTS = 400
RUNTIME_WARMUP = 50

SRC = os.path.dirname(repro.__file__)


@contextlib.contextmanager
def counting_calls() -> Iterator[List[int]]:
    """Count ``sys.setprofile`` calls into ``src/repro`` inside the block
    (an event loop's callbacks included); the count is the yielded list's
    one item."""
    calls = [0]

    def count(frame, event, arg):
        if event == "call":
            filename = frame.f_code.co_filename
            if filename.startswith(SRC) or filename == "<string>":
                calls[0] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        yield calls
    finally:
        sys.setprofile(previous)


def calls_per_op(name: str) -> float:
    config, sim = CELLS[name]
    cluster = Cluster(config)
    with counting_calls() as calls:
        cluster.run(sim)
    return calls[0] / sum(s.ops_served for s in cluster.servers.values())


def runtime_calls_per_request() -> float:
    rng = random.Random(43)
    keys = [f"key-{i:04d}" for i in range(400)]
    values = {key: rng.randbytes(256) for key in keys}
    plan = [rng.sample(keys, RUNTIME_FANOUT) for _ in range(RUNTIME_WARMUP + RUNTIME_REQUESTS)]

    async def scenario() -> int:
        async with LocalCluster(n_servers=4, byte_rate=None) as cluster:
            await cluster.preload(values)
            for request in plan[:RUNTIME_WARMUP]:
                await cluster.client.multiget(request)
            got = []
            with counting_calls() as calls:
                for request in plan[RUNTIME_WARMUP:]:
                    got.append(await cluster.client.multiget(request))
        for request, values_got in zip(plan[RUNTIME_WARMUP:], got):
            assert values_got == {key: values[key] for key in request}
        return calls[0]

    return asyncio.run(scenario()) / RUNTIME_REQUESTS


@pytest.mark.parametrize("name", sorted(BUDGET))
def test_calls_per_served_op_stay_within_budget(name):
    assert calls_per_op(name) <= BUDGET[name]


def test_runtime_calls_per_multiget_stay_within_budget():
    assert runtime_calls_per_request() <= RUNTIME_BUDGET
