#!/usr/bin/env python
"""Fault tolerance in the asyncio runtime: chaos, retries, recovery.

Starts a real 4-server cluster, preloads a keyspace, then takes server
0 dark mid-run with a fault plan's ``Pause`` (the runtime cuts the
server: TCP stays up, nothing answers — the worst failure mode).  Side
by side:

* an *unprotected* client, which hangs on the first multiget that touches
  the dead server;
* a *protected* client (``RetryPolicy`` + partial multigets + circuit
  breaker), which keeps answering with every key the live servers own and
  a report naming the dead one — then reconverges on its own when the
  server comes back.

Run:  python examples/runtime_faults.py
"""

import asyncio
import time

from repro.faults import FaultPlan, Pause
from repro.runtime import LocalCluster, RetryPolicy

N_SERVERS = 4
N_KEYS = 60
OUTAGE = 1.0  # seconds of darkness for server 0


async def main() -> None:
    async with LocalCluster(n_servers=N_SERVERS, byte_rate=None) as cluster:
        items = {f"key:{i:03d}": f"value-{i}".encode() for i in range(N_KEYS)}
        await cluster.preload(items)
        dead_keys = [k for k in items if cluster.client.owner(k) == 0]
        print(
            f"{N_SERVERS} servers, {N_KEYS} keys "
            f"({len(dead_keys)} owned by server 0)\n"
        )

        protected = await cluster.new_client(
            retry_policy=RetryPolicy(op_timeout=0.05, max_attempts=3),
            breaker_reset_timeout=0.2,
        )

        print(f"-- server 0 dark for {OUTAGE:.1f}s (fault-plan Pause)")
        driver = cluster.apply_fault_plan(FaultPlan((Pause(0, at=0.0, until=OUTAGE),)))
        await asyncio.sleep(0)  # the driver opens the window

        # The unprotected client hangs until we give up on it.
        t0 = time.monotonic()
        try:
            await asyncio.wait_for(cluster.client.multiget(list(items)), 0.25)
            print("unprotected client: completed (unexpected!)")
        except asyncio.TimeoutError:
            print(
                "unprotected client: still hanging after "
                f"{time.monotonic() - t0:.2f}s -> abandoned"
            )

        # The protected client degrades gracefully the whole outage long.
        rounds = 0
        while time.monotonic() - t0 < OUTAGE:
            values, report = await protected.multiget(list(items), partial=True)
            rounds += 1
            if rounds == 1:
                print(
                    f"protected client:   {len(values)}/{len(items)} keys, "
                    f"failed servers {sorted(report.failed_servers)}, "
                    f"{report.retries} retries this call"
                )
        print(f"protected client:   {rounds} partial multigets during the outage")

        # Recovery needs nothing from us: the pause window ends, the
        # breaker half-opens, the next probe succeeds.
        await driver.wait()
        await asyncio.sleep(0.25)
        values, report = await protected.multiget(list(items), partial=True)
        assert report.complete and values == items
        print("after recovery:     full multiget succeeded, no manual steps")

        stats = protected.stats()
        print(
            "\nclient counters: "
            f"retries={stats['retries']} timeouts={stats['timeouts']} "
            f"breaker_opens={stats['breaker_opens']} "
            f"fast_rejections={stats['breaker_rejections']}"
        )
        faults = cluster.servers[0].stats()["faults"]
        print(
            "server 0 faults injected: "
            f"dropped={faults['dropped']} "
            f"refused_connections={faults['refused_connections']}"
        )


if __name__ == "__main__":
    asyncio.run(main())
