"""The runtime client's DAS tags against the formula they were defined by.

The client ranks a multiget from per-key demand guesses (last seen value
size, else ``DEFAULT_SIZE_GUESS``) summed per touched server and divided
by each server's estimated rate.  ``reference_tags`` is that definition
written out plainly; the client's one-pass version must agree with it
bit for bit on seeded slices, whichever way it learned the sizes.
"""

import asyncio
import random

from repro.kvstore.items import Feedback
from repro.runtime import LocalCluster
from repro.runtime.client import DEFAULT_SIZE_GUESS


def reference_tags(client, by_server, sizes):
    bottleneck = 0.0
    rpt = 0.0
    total = 0.0
    for server_id, keys in by_server.items():
        slice_demand = sum(
            client.per_op_overhead_hint
            + sizes.get(key, DEFAULT_SIZE_GUESS) / client.byte_rate_hint
            for key in keys
        )
        total += slice_demand
        bottleneck = max(bottleneck, slice_demand)
        rate = max(client.estimates.rate(server_id), 1e-9)
        rpt = max(rpt, slice_demand / rate)
    return {"rpt": rpt, "bottleneck": bottleneck, "total_demand": total}


def test_tags_match_the_reference_formula_on_seeded_slices():
    rng = random.Random(7)
    keys = [f"key-{i:03d}" for i in range(60)]
    put_values = {key: rng.randbytes(rng.randrange(1, 4096)) for key in keys[:20]}
    # Stored behind the client's back: it learns these sizes from mget replies.
    read_values = {key: rng.randbytes(rng.randrange(1, 4096)) for key in keys[20:40]}
    # keys[40:] are never seen: the default guess.

    async def scenario():
        async with LocalCluster(n_servers=4, byte_rate=None) as cluster:
            client = cluster.client
            await cluster.preload(put_values)
            for key, value in read_values.items():
                cluster.servers[client.owner(key)].storage[key] = value
            assert await client.multiget(list(read_values)) == read_values
            # Seeded rates; server 3 reports nothing and keeps the default.
            for server_id in range(3):
                client.estimates.observe(
                    Feedback(server_id, 0.0, 0, rng.uniform(0.2, 3.0), 0.0)
                )
            sizes = {key: len(value) for key, value in put_values.items()}
            sizes.update((key, len(value)) for key, value in read_values.items())
            for _ in range(200):
                by_server = {}
                for key in rng.sample(keys, rng.randrange(1, 17)):
                    by_server.setdefault(client.owner(key), []).append(key)
                assert client._tags_for(by_server) == reference_tags(
                    client, by_server, sizes
                )

    asyncio.run(scenario())
