"""Python calls per served operation, counted — not timed.

A simulated cell's cost is per operation: each op is delivered, queued,
served, answered and folded into its client's estimates.  This counts
the ``sys.setprofile`` ``"call"`` events of code under ``src/repro``
(generated ``__init__``s included, since they are per-object calls)
over two golden cells and divides by the operations served, so a change
that puts a wrapper, a property or a message object back on that path
fails here even when no clock would notice.

Recorded figures (Python 3.11): ``open-das`` 19.0 calls per served op
(43.0 before the op path was flattened), ``dodoor-reports`` 28.2 (63.3;
each read also makes its replica decision and feeds the load cache).
The budget is each figure plus the slack below.
"""

import os
import sys

import pytest

import repro
from repro.kvstore.cluster import Cluster
from tests.integration.test_sim_golden import CELLS

#: Calls per served op, as recorded above, plus one call of slack.
BUDGET = {"open-das": 19.0 + 1.0, "dodoor-reports": 28.2 + 1.0}

SRC = os.path.dirname(repro.__file__)


def calls_per_op(name: str) -> float:
    config, sim = CELLS[name]
    cluster = Cluster(config)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            filename = frame.f_code.co_filename
            if filename.startswith(SRC) or filename == "<string>":
                calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        cluster.run(sim)
    finally:
        sys.setprofile(previous)
    return calls / sum(s.ops_served for s in cluster.servers.values())


@pytest.mark.parametrize("name", sorted(BUDGET))
def test_calls_per_served_op_stay_within_budget(name):
    assert calls_per_op(name) <= BUDGET[name]
