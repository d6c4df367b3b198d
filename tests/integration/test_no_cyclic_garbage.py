"""Per-request objects die by reference counting, never by the cyclic GC.

A request's completion time is the max over its operations, so a
collector pause that lands on any one of them sets it.  Both halves free
a finished request's objects the moment it is done: the simulator drops
``Request.operations`` once the request is recorded, and the runtime's
``OpSink`` lets go of its ``on_done`` closure once it has fired.  These
tests run each half with the collector off and ``DEBUG_SAVEALL`` on, then
collect while the cluster is still alive: anything in ``gc.garbage`` was
freed only by the cyclic collector.  No object of a ``repro`` class and
no ``repro`` function may be among it.

Every golden cell runs but ``link-faults``, which loses requests for
good: a dropped operation never completes, so its request is never
recorded and keeps its ``operations`` link.  ``hedged-timeouts`` does
leave garbage (``np.percentile``, behind its hedge threshold, leaves
numpy and ``inspect`` internals in cycles), but none of it is ours; it
stays in because its late hedges and retries reach requests that have
already let go of their operations.
"""

import asyncio
import contextlib
import gc
import types
from collections import Counter

import pytest

from repro.kvstore.cluster import Cluster
from repro.runtime.cluster import LocalCluster
from repro.runtime.resilience import RetryPolicy
from tests.integration.test_sim_golden import CELLS

SIM_CELLS = sorted(set(CELLS) - {"link-faults"})

RUNTIME_PATHS = {
    "default": {},
    "retry": {"retry_policy": RetryPolicy()},
    "dodoor": {"replication_factor": 3, "selection": "dodoor"},
    "traced": {"trace_sample_rate": 1.0},
}


@contextlib.contextmanager
def cyclic_garbage():
    """Yield a list that ends up holding what the block left to the collector."""
    garbage = []
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield garbage
        gc.collect()
        garbage.extend(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def repro_objects(garbage):
    """Count the garbage that the ``repro`` package made, by type name."""
    found = Counter()
    for obj in garbage:
        if isinstance(obj, (types.FunctionType, types.MethodType)):
            module = getattr(obj, "__module__", None) or ""
            name = f"function {getattr(obj, '__qualname__', '?')}"
        else:
            module = type(obj).__module__
            name = type(obj).__qualname__
        if module == "repro" or module.startswith("repro."):
            found[name] += 1
    return found


@pytest.mark.parametrize("name", SIM_CELLS)
def test_simulated_requests_leave_no_cycles(name):
    config, sim = CELLS[name]
    with cyclic_garbage() as garbage:
        cluster = Cluster(config)
        cluster.run(sim)
    assert cluster.clients[0].requests_completed > 0
    assert repro_objects(garbage) == {}


async def _serve(cluster_kwargs):
    async with LocalCluster(n_servers=4, byte_rate=None, **cluster_kwargs) as cluster:
        client = cluster.client
        keys = [f"key-{i}" for i in range(32)]
        for key in keys:
            await client.put(key, b"v" * 64)
        with cyclic_garbage() as garbage:
            for round_ in range(50):
                await asyncio.gather(
                    *(
                        client.multiget(keys[(round_ + j) % 4 :: 4])
                        for j in range(4)
                    )
                )
            for i in range(40):
                await client.put(keys[i % len(keys)], b"w" * 64)
        return repro_objects(garbage)


@pytest.mark.parametrize("path", sorted(RUNTIME_PATHS))
def test_runtime_requests_leave_no_cycles(path):
    assert asyncio.run(_serve(RUNTIME_PATHS[path])) == {}
