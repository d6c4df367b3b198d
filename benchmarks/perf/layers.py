"""Bucket a cProfile table into the repo's layers.

Input is the ``stats`` mapping of :class:`pstats.Stats`:
``(file, line, name) -> (primitive calls, calls, self s, cumulative s,
{caller: (calls, primitive calls, self s, cumulative s)})``.

Every function defined in a ``repro`` module belongs to that module's
layer.  Time spent in code the repo does not own (builtins, stdlib,
numpy, json, base64) is charged to the nearest repo caller: cProfile
records, per caller edge, the callee's self time under that caller, so
the first hop is exact; when the caller is itself foreign its own caller
edges split the charge further up, in proportion.  ``asyncio``,
``selectors`` and ``socket`` are the exception: they form a layer of
their own (and absorb the builtins *they* call, such as ``epoll.poll``
and ``socket.send``), because the event loop is what a runtime
optimisation would replace.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Mapping, Optional, Tuple

from benchmarks.perf.spec import LAYERS

Func = Tuple[str, int, str]

#: ``repro/<prefix>`` -> layer; first match wins, anything else in the
#: package (cluster assembly, configs, experiments) is ``other``.
_REPRO_LAYERS = (
    ("sim/eventcore.py", "sim.eventcore"),
    ("sim/rand.py", "sim.rand"),
    ("sim/", "sim.core"),
    ("workload/", "workload"),
    ("kvstore/client.py", "kvstore.client"),
    ("kvstore/server.py", "kvstore.server"),
    ("kvstore/service.py", "kvstore.server"),
    ("kvstore/network.py", "kvstore.network"),
    ("kvstore/storage.py", "kvstore.storage"),
    ("kvstore/replication.py", "kvstore.replication"),
    ("kvstore/partitioning.py", "kvstore.replication"),
    ("kvstore/items.py", "kvstore.items"),
    ("core/estimator.py", "core.estimator"),
    ("core/feedback.py", "core.feedback"),
    ("core/", "core.das"),
    ("schedulers/", "schedulers"),
    ("sharding/", "sharding"),
    ("selection/", "selection"),
    ("faults/", "faults"),
    ("runtime/faults.py", "faults"),
    ("runtime/resilience.py", "faults"),
    ("metrics/", "metrics"),
    ("obs/", "obs"),
    ("runtime/protocol.py", "runtime.protocol"),
    ("runtime/client.py", "runtime.client"),
    ("runtime/server.py", "runtime.server"),
    ("runtime/scheduling.py", "runtime.scheduling"),
)

#: Rounds of pushing foreign time up the caller edges; a chain of foreign
#: frames deeper than this (or a cycle's remainder) is charged to ``other``.
_ROUNDS = 24


def layer_of(filename: str) -> Optional[str]:
    """The layer that owns ``filename``, or None for code the repo does not own."""
    path = filename.replace("\\", "/")
    if "/src/repro/" in path:
        relative = path.rsplit("/src/repro/", 1)[1]
        for prefix, layer in _REPRO_LAYERS:
            if relative.startswith(prefix):
                return layer
        return "other"
    if "/asyncio/" in path or path.endswith(("/selectors.py", "/socket.py")):
        return "asyncio"
    if "/benchmarks/perf/" in path:
        return "other"  # the load generator and this harness
    return None


def _owners(
    stats: Mapping[Func, tuple], owned: Mapping[Func, Optional[str]]
) -> Dict[Func, Dict[str, float]]:
    """For every foreign function (``owned`` is None), the layers that own
    it, as shares of 1."""
    edges: Dict[Func, Dict[Func, float]] = {}
    for func, (_, _, _, _, callers) in stats.items():
        if owned[func] is not None:
            continue
        # A self edge (recursion) says nothing about who asked for the work.
        weights = {c: e[2] for c, e in callers.items() if c != func}
        if sum(weights.values()) <= 0.0:
            weights = {c: float(e[0]) for c, e in callers.items() if c != func}
        norm = sum(weights.values())
        edges[func] = {c: w / norm for c, w in weights.items()} if norm > 0 else {}
    shares: Dict[Func, Dict[str, float]] = {func: {} for func in edges}
    for _ in range(_ROUNDS):
        updated: Dict[Func, Dict[str, float]] = {}
        for func, callers in edges.items():
            mix: Dict[str, float] = defaultdict(float)
            for caller, weight in callers.items():
                layer = owned.get(caller, "other")
                if layer is not None:
                    mix[layer] += weight
                else:
                    for layer, share in shares[caller].items():
                        mix[layer] += weight * share
            updated[func] = dict(mix)
        shares = updated
    for mix in shares.values():
        mix["other"] = mix.get("other", 0.0) + max(0.0, 1.0 - sum(mix.values()))
    return shares


def attribute(stats: Mapping[Func, tuple]) -> Tuple[Dict[str, float], Dict[str, int]]:
    """``(self seconds, calls)`` per layer; self seconds sum to the profile total.

    Calls count only functions the layer defines: they are the layer's
    work as a count, not the builtins it happened to invoke.
    """
    seconds = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    owned = {func: layer_of(func[0]) for func in stats}
    owners = _owners(stats, owned)
    for func, (_, ncalls, self_s, _, _) in stats.items():
        layer = owned[func]
        if layer is not None:
            seconds[layer] += self_s
            calls[layer] += ncalls
        else:
            for layer, share in owners[func].items():
                seconds[layer] += self_s * share
    return seconds, calls


def layer_metrics(
    stats: Mapping[Func, tuple], requests: int, idle_s: float = 0.0
) -> Dict[str, float]:
    """The ``L.<layer>.*`` metrics of one profile over ``requests`` requests.

    cProfile's clock is wall time, so the time an event loop sleeps in its
    selector between arrivals is recorded as self time of ``poll``.  The
    caller measures that idle time (wall minus CPU of the profiled
    section) and passes it as ``idle_s``; it is no layer's cost and is
    taken out of ``asyncio``, where every blocking wait lands.
    """
    seconds, calls = attribute(stats)
    seconds["asyncio"] = max(0.0, seconds["asyncio"] - idle_s)
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"L.{layer}.self_us_per_req"] = seconds[layer] / requests * 1e6
        metrics[f"L.{layer}.calls_per_req"] = calls[layer] / requests
    return metrics


#: Columns of a pstats entry, for :func:`total`.
CALLS, CUMULATIVE = 1, 3


def total(stats: Mapping[Func, tuple], file_suffix: str, name: str, column: int) -> float:
    """Sum of one pstats column over the functions ``name`` defined in ``*file_suffix``."""
    return sum(
        entry[column]
        for (filename, _, funcname), entry in stats.items()
        if funcname == name and filename.replace("\\", "/").endswith(file_suffix)
    )
