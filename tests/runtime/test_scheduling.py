"""Tests for the scheduled asyncio executor."""

import asyncio

import pytest

from repro.runtime.scheduling import (
    ExecutorStoppedError,
    QueuedOp,
    ScheduledExecutor,
)


def run(coro):
    return asyncio.run(coro)


def make_queued_op(key="k", demand=0.0, tag=None, result="ok"):
    op = QueuedOp(key=key, demand=demand, tag=dict(tag or {}))
    op.work = lambda: result
    return op


class TestExecutor:
    def test_executes_submitted_op(self):
        async def scenario():
            executor = ScheduledExecutor(policy_name="fcfs", byte_rate=None)
            await executor.start()
            result = await executor.submit(make_queued_op(result=42))
            await executor.stop()
            assert result == 42
            assert executor.ops_executed == 1

        run(scenario())

    def test_fcfs_order(self):
        async def scenario():
            executor = ScheduledExecutor(policy_name="fcfs", byte_rate=None)
            order = []
            ops = []
            for i in range(5):
                op = QueuedOp(key=f"k{i}", demand=0.0)
                op.work = lambda i=i: order.append(i)
                ops.append(op)
            futures = [executor.submit(op) for op in ops]
            await executor.start()
            await asyncio.gather(*futures)
            await executor.stop()
            assert order == [0, 1, 2, 3, 4]

        run(scenario())

    def test_priority_order_with_sjf(self):
        async def scenario():
            # Submit before starting so the whole batch is queued, then the
            # scheduler picks smallest demand first.
            executor = ScheduledExecutor(policy_name="sjf-req", byte_rate=None)
            order = []
            futures = []
            for demand in (3.0, 1.0, 2.0):
                op = QueuedOp(key="k", demand=0.0, tag={})
                op.demand = 0.0  # no sleep
                op.tag["demand_label"] = demand
                op.work = lambda d=demand: order.append(d)
                # Untagged, sjf-req keys on op.demand; emulate demand without sleeping
                # by setting demand then disabling the throttle.
                op.demand = demand
                futures.append(executor.submit(op))
            await executor.start()
            await asyncio.gather(*futures)
            await executor.stop()
            assert order == [1.0, 2.0, 3.0]

        run(scenario())

    def test_das_tags_respected(self):
        async def scenario():
            executor = ScheduledExecutor(
                policy_name="das", byte_rate=None,
            )
            order = []
            futures = []
            for rpt in (5.0, 1.0, 3.0):
                op = QueuedOp(key="k", demand=0.0, tag={"rpt": rpt})
                op.work = lambda r=rpt: order.append(r)
                futures.append(executor.submit(op))
            await executor.start()
            await asyncio.gather(*futures)
            await executor.stop()
            assert order == [1.0, 3.0, 5.0]

        run(scenario())

    def test_work_exception_propagates_to_future(self):
        async def scenario():
            executor = ScheduledExecutor(policy_name="fcfs", byte_rate=None)
            await executor.start()
            op = QueuedOp(key="k", demand=0.0)

            def boom():
                raise ValueError("work failed")

            op.work = boom
            with pytest.raises(ValueError, match="work failed"):
                await executor.submit(op)
            # The executor keeps serving after a failure.
            assert await executor.submit(make_queued_op(result="still alive")) == (
                "still alive"
            )
            await executor.stop()

        run(scenario())

    def test_throttle_sleeps_for_demand(self):
        async def scenario():
            executor = ScheduledExecutor(policy_name="fcfs", byte_rate=1.0)
            await executor.start()
            loop = asyncio.get_running_loop()
            t0 = loop.time()
            await executor.submit(make_queued_op(demand=0.05))
            elapsed = loop.time() - t0
            await executor.stop()
            assert elapsed >= 0.04

        run(scenario())

    def test_feedback_shape(self):
        async def scenario():
            executor = ScheduledExecutor(policy_name="fcfs", byte_rate=None)
            feedback = executor.feedback()
            assert set(feedback) == {"queued_work", "queue_length", "rate_sample"}
            assert feedback["queue_length"] == 0

        run(scenario())

    def test_double_start_rejected(self):
        async def scenario():
            executor = ScheduledExecutor(policy_name="fcfs", byte_rate=None)
            await executor.start()
            with pytest.raises(RuntimeError):
                await executor.start()
            await executor.stop()

        run(scenario())

    def test_stop_drains_queue(self):
        async def scenario():
            executor = ScheduledExecutor(policy_name="fcfs", byte_rate=None)
            futures = [executor.submit(make_queued_op(result=i)) for i in range(5)]
            await executor.start()
            await executor.stop()
            results = [f.result() for f in futures]
            assert results == [0, 1, 2, 3, 4]

        run(scenario())

    def test_stop_waiters_share_the_drain_and_survive_a_cancelled_one(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            errors = []
            loop.set_exception_handler(lambda _loop, context: errors.append(context))
            executor = ScheduledExecutor(policy_name="fcfs", byte_rate=1.0)
            await executor.start()
            futures = [executor.submit(make_queued_op(demand=0.01, result=i)) for i in range(3)]
            impatient = asyncio.create_task(executor.stop())
            await asyncio.sleep(0)
            patient = asyncio.create_task(executor.stop())
            await asyncio.sleep(0)
            impatient.cancel()
            # The drain goes on, and the other stop() returns once it is done.
            assert await asyncio.wait_for(asyncio.gather(*futures), 2.0) == [0, 1, 2]
            await asyncio.wait_for(patient, 1.0)
            assert impatient.cancelled()
            assert errors == []

        run(scenario())


class TestLifecycleRejection:
    """submit() after stop/abort must fail fast, never hang the awaiter."""

    def test_submit_after_stop_raises(self):
        async def scenario():
            executor = ScheduledExecutor(policy_name="fcfs", byte_rate=None)
            await executor.start()
            await executor.stop()
            with pytest.raises(ExecutorStoppedError):
                executor.submit(make_queued_op())
            assert executor.registry.value(
                "executor_rejected_total", server="0"
            ) == 1.0

        run(scenario())

    def test_submit_after_abort_raises(self):
        async def scenario():
            executor = ScheduledExecutor(policy_name="fcfs", byte_rate=None)
            await executor.start()
            await executor.abort()
            with pytest.raises(ExecutorStoppedError):
                executor.submit(make_queued_op())

        run(scenario())

    def test_submit_before_start_still_allowed(self):
        async def scenario():
            executor = ScheduledExecutor(policy_name="fcfs", byte_rate=None)
            future = executor.submit(make_queued_op(result="queued early"))
            await executor.start()
            assert await future == "queued early"
            await executor.stop()

        run(scenario())


class TestFailurePath:
    def test_failed_op_still_completes_queue_bookkeeping(self):
        async def scenario():
            executor = ScheduledExecutor(policy_name="fcfs", byte_rate=None)
            completed = []
            original = executor.queue.on_service_complete
            executor.queue.on_service_complete = (
                lambda op, now: (completed.append(op), original(op, now))
            )
            await executor.start()
            bad = QueuedOp(key="k", demand=0.0)

            def boom():
                raise ValueError("work failed")

            bad.work = boom
            with pytest.raises(ValueError):
                await executor.submit(bad)
            good = make_queued_op()
            await executor.submit(good)
            await executor.stop()
            # The completion hook ran for the failure too — adaptive
            # queue state must not drift when work raises.
            assert completed == [bad, good]
            assert bad.finish_time >= bad.start_time

        run(scenario())

    def test_failures_counted_separately_from_successes(self):
        async def scenario():
            executor = ScheduledExecutor(policy_name="fcfs", byte_rate=None)
            await executor.start()
            bad = QueuedOp(key="k", demand=0.0)
            bad.work = lambda: (_ for _ in ()).throw(RuntimeError("nope"))
            with pytest.raises(RuntimeError):
                await executor.submit(bad)
            await executor.submit(make_queued_op())
            await executor.stop()
            assert executor.ops_executed == 1
            assert executor.ops_failed == 1
            hist = executor.registry.get("executor_service_seconds", server="0")
            assert hist.count == 2  # failures are observed too

        run(scenario())


class TestRuns:
    """The worker serves runs of picks and completes messages, not ops."""

    @staticmethod
    def backlog(rng):
        """Ops with second-scale tags: no aging or starvation bound can fire
        in the milliseconds a test takes, so the order is the tags' alone."""
        ops = []
        for i in range(240):
            outlier = rng.random() < 0.1
            size = rng.uniform(50.0, 100.0) if outlier else rng.uniform(1.0, 5.0)
            ops.append(
                QueuedOp(
                    key=f"k{i}",
                    demand=0.0,
                    tag={"rpt": size, "bottleneck": rng.choice((1.0, 2.0, size))},
                )
            )
        return ops

    @pytest.mark.parametrize("policy", ["fcfs", "sbf", "das"])
    def test_pop_order_matches_the_per_op_loop(self, policy):
        import random
        import time

        # The reference: the loop the executor ran before it served runs —
        # pop, serve, completion hook, one operation at a time.
        reference = ScheduledExecutor(policy_name=policy, byte_rate=None).queue
        for op in self.backlog(random.Random(7)):
            reference.push(op, time.monotonic())
        expected = []
        while len(reference) > 0:
            op = reference.pop(time.monotonic())
            expected.append(op.key)
            reference.on_service_complete(op, time.monotonic())

        async def scenario():
            executor = ScheduledExecutor(policy_name=policy, byte_rate=None)
            served = []
            ops = self.backlog(random.Random(7))
            for op in ops:
                op.work = lambda key=op.key: served.append(key)
            done = []
            # Preloaded as messages of five operations each.
            for start in range(0, len(ops), 5):
                executor.submit_message(ops[start : start + 5], done.append)
            await executor.start()
            await executor.stop()
            assert done == [False] * (len(ops) // 5)
            return served

        served = run(scenario())
        assert served == expected

    def test_one_completion_per_message_after_its_last_op(self):
        async def scenario():
            executor = ScheduledExecutor(policy_name="fcfs", byte_rate=None)
            events = []
            first = [make_queued_op(key=f"a{i}", result=i) for i in range(3)]
            second = [make_queued_op(key=f"b{i}", result=i) for i in range(2)]
            for op in first + second:
                op.work = lambda key=op.key: events.append(key)
            executor.submit_message(first, lambda cancelled: events.append("A done"))
            executor.submit_message(second, lambda cancelled: events.append("B done"))
            await executor.start()
            await executor.stop()
            assert events == ["a0", "a1", "a2", "A done", "b0", "b1", "B done"]

        run(scenario())

    def test_empty_message_completes_at_once(self):
        async def scenario():
            executor = ScheduledExecutor(policy_name="fcfs", byte_rate=None)
            done = []
            executor.submit_message([], done.append)
            assert done == [False]

        run(scenario())

    def test_backlog_does_not_starve_the_loop(self):
        import statistics
        import time

        from repro.runtime.scheduling import RUN_BUDGET_SECONDS

        async def scenario():
            executor = ScheduledExecutor(policy_name="fcfs", byte_rate=None)
            ops = [make_queued_op(key=f"k{i}") for i in range(10_000)]
            finished = asyncio.get_running_loop().create_future()
            executor.submit_message(ops, lambda cancelled: finished.set_result(None))
            ticks = []

            async def ticker():
                while not finished.done():
                    ticks.append(time.monotonic())
                    await asyncio.sleep(0)

            await executor.start()
            tick_task = asyncio.create_task(ticker())
            await finished
            await tick_task
            await executor.stop()
            return ticks, executor.ops_executed

        ticks, executed = run(scenario())
        assert executed == 10_000
        gaps = [b - a for a, b in zip(ticks, ticks[1:])]
        # The ticker ran once per run budget (the median shrugs off the odd
        # preemption by another process), and far less than once per op.
        assert len(gaps) >= 5
        assert statistics.median(gaps) <= 4 * RUN_BUDGET_SECONDS
        assert len(ticks) < 10_000 / 4

    def test_throttled_ops_yield_at_their_sleep(self):
        async def scenario():
            executor = ScheduledExecutor(policy_name="fcfs", byte_rate=1.0)
            ops = [make_queued_op(key=f"k{i}", demand=0.002) for i in range(5)]
            finished = asyncio.get_running_loop().create_future()
            executor.submit_message(ops, lambda cancelled: finished.set_result(None))
            ticks = 0

            async def ticker():
                nonlocal ticks
                while not finished.done():
                    ticks += 1
                    await asyncio.sleep(0.0005)

            await executor.start()
            tick_task = asyncio.create_task(ticker())
            await finished
            await tick_task
            await executor.stop()
            assert ticks >= 5  # the loop ran during every emulated service

        run(scenario())

    def test_abort_cancels_a_half_served_message(self):
        async def scenario():
            executor = ScheduledExecutor(policy_name="fcfs", byte_rate=1.0)
            served = []
            ops = [make_queued_op(key=f"k{i}", demand=0.05) for i in range(3)]
            for op in ops:
                op.work = lambda key=op.key: served.append(key)
            outcomes = []
            executor.submit_message(ops, outcomes.append)
            lone = executor.submit(make_queued_op(key="lone", demand=0.05))
            await executor.start()
            await asyncio.sleep(0.075)  # k0 done at 50 ms, k1 in service until 100
            assert served == ["k0", "k1"]
            await asyncio.wait_for(executor.abort(), timeout=2.0)
            # One cancellation for the message, whatever had been served.
            assert outcomes == [True]
            with pytest.raises(asyncio.CancelledError):
                await asyncio.wait_for(lone, timeout=2.0)
            assert len(executor.queue) == 0
            assert served == ["k0", "k1"]

        run(scenario())

    def test_bad_completion_callback_does_not_kill_the_worker(self):
        async def scenario():
            executor = ScheduledExecutor(policy_name="fcfs", byte_rate=None)
            await executor.start()

            def explode(cancelled):
                raise RuntimeError("reply could not be built")

            executor.submit_message([make_queued_op()], explode)
            assert await executor.submit(make_queued_op(result="alive")) == "alive"
            await executor.stop()

        run(scenario())
