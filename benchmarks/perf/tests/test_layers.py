"""Layer bucketing on a hand-built pstats table."""

import pytest

from benchmarks.perf.layers import CALLS, CUMULATIVE, attribute, layer_metrics, layer_of, total

SCHEDULE = ("/x/src/repro/sim/core.py", 186, "_schedule")
ENCODE = ("/x/src/repro/runtime/protocol.py", 80, "encode")
RUN_ONCE = ("/usr/lib/python3.11/asyncio/base_events.py", 1845, "_run_once")
DUMPS = ("/usr/lib/python3.11/json/__init__.py", 183, "dumps")
C_ENCODE = ("~", 0, "<built-in method _json.encode_basestring_ascii>")
HEAPPUSH = ("~", 0, "<built-in method _heapq.heappush>")
POLL = ("~", 0, "<method 'poll' of 'select.epoll' objects>")
ROOT = ("~", 0, "<built-in method builtins.exec>")

#: func -> (primitive calls, calls, self s, cumulative s, {caller: (calls, prim, self, cum)})
STATS = {
    ROOT: (1, 1, 0.5, 12.0, {}),
    SCHEDULE: (10, 10, 1.0, 3.0, {ROOT: (10, 10, 1.0, 3.0)}),
    ENCODE: (4, 4, 2.0, 6.0, {ROOT: (4, 4, 2.0, 6.0)}),
    RUN_ONCE: (2, 2, 0.5, 2.5, {ROOT: (2, 2, 0.5, 2.5)}),
    # heappush is called from the kernel (1.5 s) and from the event loop (0.5 s).
    HEAPPUSH: (
        20, 20, 2.0, 2.0,
        {SCHEDULE: (15, 15, 1.5, 1.5), RUN_ONCE: (5, 5, 0.5, 0.5)},
    ),
    # json.dumps is foreign, and so is what it calls: two hops up to protocol.
    DUMPS: (4, 4, 1.0, 4.0, {ENCODE: (4, 4, 1.0, 4.0)}),
    C_ENCODE: (8, 8, 3.0, 3.0, {DUMPS: (8, 8, 3.0, 3.0)}),
    POLL: (2, 2, 1.5, 1.5, {RUN_ONCE: (2, 2, 1.5, 1.5)}),
}


def test_layer_of():
    assert layer_of(SCHEDULE[0]) == "sim.core"
    assert layer_of("/x/src/repro/sim/eventcore.py") == "sim.eventcore"
    assert layer_of("/x/src/repro/core/adaptive.py") == "core.das"
    assert layer_of("/x/src/repro/kvstore/partitioning.py") == "kvstore.replication"
    assert layer_of("/x/src/repro/runtime/faults.py") == "faults"
    assert layer_of("/x/src/repro/kvstore/cluster.py") == "other"
    assert layer_of("/usr/lib/python3.11/selectors.py") == "asyncio"
    assert layer_of("/x/benchmarks/perf/rtload.py") == "other"
    assert layer_of(DUMPS[0]) is None and layer_of("~") is None


def test_foreign_time_is_charged_to_the_repo_caller():
    seconds, calls = attribute(STATS)
    assert seconds["sim.core"] == pytest.approx(1.0 + 1.5)
    assert seconds["runtime.protocol"] == pytest.approx(2.0 + 1.0 + 3.0)
    assert seconds["asyncio"] == pytest.approx(0.5 + 0.5 + 1.5)
    assert seconds["other"] == pytest.approx(0.5)  # the root frame has no caller
    # Calls count only what the layer defines, not the builtins under it.
    assert calls["sim.core"] == 10 and calls["runtime.protocol"] == 4
    assert calls["asyncio"] == 2 and calls["other"] == 0


def test_shares_sum_to_the_profiled_time():
    seconds, _ = attribute(STATS)
    assert sum(seconds.values()) == pytest.approx(sum(e[2] for e in STATS.values()))


def test_recursion_and_cycles_keep_the_total():
    a, b = ("/lib/a.py", 1, "a"), ("/lib/b.py", 1, "b")
    stats = {
        ENCODE: (1, 1, 1.0, 4.0, {}),
        a: (3, 5, 2.0, 3.0, {ENCODE: (1, 1, 1.0, 3.0), b: (2, 2, 1.0, 1.0), a: (2, 0, 0.0, 0.0)}),
        b: (2, 2, 1.0, 2.0, {a: (2, 2, 1.0, 2.0)}),
    }
    seconds, _ = attribute(stats)
    assert sum(seconds.values()) == pytest.approx(4.0)
    assert seconds["runtime.protocol"] == pytest.approx(4.0, abs=1e-3)


def test_layer_metrics_discounts_idle_and_divides_by_requests():
    metrics = layer_metrics(STATS, requests=10, idle_s=1.0)
    assert metrics["L.asyncio.self_us_per_req"] == pytest.approx(1.5 / 10 * 1e6)
    assert metrics["L.sim.core.calls_per_req"] == pytest.approx(1.0)
    assert metrics["L.selection.self_us_per_req"] == 0.0


def test_total_selects_by_file_and_name():
    assert total(STATS, "/sim/core.py", "_schedule", CALLS) == 10
    assert total(STATS, "/runtime/protocol.py", "encode", CUMULATIVE) == 6.0
    assert total(STATS, "/runtime/protocol.py", "decode", CUMULATIVE) == 0
