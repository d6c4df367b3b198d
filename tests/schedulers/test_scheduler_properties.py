"""Property-based tests: invariants every scheduling policy must hold."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schedulers.registry import available_schedulers, create_policy

from tests.schedulers.helpers import make_op

ALL_POLICIES = sorted(set(available_schedulers()))


@st.composite
def op_script(draw):
    """A random interleaving of pushes and pops (pops never exceed pushes)."""
    events = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["push", "pop"]),
                st.floats(min_value=1e-6, max_value=100.0),
            ),
            min_size=1,
            max_size=60,
        )
    )
    script = []
    balance = 0
    for kind, demand in events:
        if kind == "pop" and balance == 0:
            continue
        balance += 1 if kind == "push" else -1
        script.append((kind, demand))
    return script


@pytest.mark.parametrize("policy_name", ALL_POLICIES)
@given(script=op_script())
@settings(max_examples=40, deadline=None)
def test_no_loss_no_invention(policy_name, script):
    """Ops popped are exactly ops pushed (no loss, no duplication)."""
    queue = create_policy(policy_name).make_queue()
    pushed = []
    popped = []
    now = 0.0
    for i, (kind, demand) in enumerate(script):
        now += 0.5
        if kind == "push":
            op = make_op(demand=demand, request_id=i, tag={"rpt": demand,
                                                           "bottleneck": demand,
                                                           "total_demand": demand})
            pushed.append(op)
            queue.push(op, now)
        else:
            popped.append(queue.pop(now))
    while len(queue):
        now += 0.5
        popped.append(queue.pop(now))
    assert sorted(id(o) for o in popped) == sorted(id(o) for o in pushed)


@pytest.mark.parametrize("policy_name", ALL_POLICIES)
@given(demands=st.lists(st.floats(min_value=1e-6, max_value=10.0), min_size=1, max_size=30))
@settings(max_examples=40, deadline=None)
def test_queued_demand_is_sum_of_contents(policy_name, demands):
    queue = create_policy(policy_name).make_queue()
    total = 0.0
    for i, demand in enumerate(demands):
        queue.push(make_op(demand=demand, request_id=i, tag={"rpt": demand}), 0.0)
        total += demand
    assert queue.queued_demand == pytest.approx(total)
    while len(queue):
        op = queue.pop(1.0)
        total -= op.demand
        assert queue.queued_demand == pytest.approx(total, abs=1e-9)


@given(demands=st.lists(st.floats(min_value=0.001, max_value=10.0), min_size=2, max_size=30))
@settings(max_examples=60, deadline=None)
def test_sjf_op_pops_in_nondecreasing_demand(demands):
    """Untagged, ``sjf-req`` keys on each operation's own demand."""
    queue = create_policy("sjf-req").make_queue()
    for i, demand in enumerate(demands):
        queue.push(make_op(demand=demand, request_id=i), 0.0)
    served = []
    while len(queue):
        served.append(queue.pop(0.0).demand)
    assert served == sorted(served)


@given(demands=st.lists(st.floats(min_value=0.001, max_value=10.0), min_size=2, max_size=30))
@settings(max_examples=60, deadline=None)
def test_das_without_estimates_matches_sbf_order(demands):
    """With identical tags and no feedback, DAS front band == SBF order."""
    das = create_policy("das", last_band=False).make_queue()
    sbf = create_policy("sbf").make_queue()
    for i, demand in enumerate(demands):
        tag = {"rpt": demand, "bottleneck": demand}
        das.push(make_op(demand=demand, request_id=i, tag=dict(tag)), 0.0)
        sbf.push(make_op(demand=demand, request_id=i, tag=dict(tag)), 0.0)
    das_order = []
    sbf_order = []
    while len(das):
        das_order.append(das.pop(0.0).request_id)
        sbf_order.append(sbf.pop(0.0).request_id)
    assert das_order == sbf_order
