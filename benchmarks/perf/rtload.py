"""The benchmark's own load drivers for the runtime workloads.

Not ``repro.runtime.loadgen``: that one starts a request's clock when it
is launched rather than when it was due, swallows errors without checking
values, and is slated for rewrite.  Here the whole plan (due times, keys,
payloads) is generated from the seed before the clock starts, an
open-loop request is timed from its due time with the generator's
lateness recorded per launch, and a wrong value is a failure.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


def canonical_value(seed: int, key: str, size: int) -> bytes:
    """The bytes ``key`` must hold: derived from key and seed, so a value
    swapped between keys, truncated or left over from another run is caught."""
    return hashlib.shake_128(f"{seed}:{key}".encode()).digest(size)


@dataclass(frozen=True)
class Request:
    #: Seconds after the section's origin at which the request is due
    #: (open loop); unused in the closed loop.
    due: float
    keys: Tuple[str, ...]
    put: bool = False


@dataclass
class Outcome:
    """What one section (warm-up or measured) of a runtime trial produced."""

    attempted: int = 0
    failed: int = 0
    first_error: Optional[str] = None
    #: Completion times of the requests that succeeded, seconds.
    rcts: List[float] = field(default_factory=list)
    #: Open loop: how long after its due time each request was launched.
    late: List[float] = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0


def closed_plan(
    rng: random.Random, keys: Sequence[str], requests: int, callers: int, fanout: int
) -> List[List[Request]]:
    """Per caller, its share of ``requests`` multigets of ``fanout`` distinct keys."""
    return [
        [
            Request(0.0, tuple(rng.sample(keys, fanout)))
            for _ in range(requests // callers + (1 if c < requests % callers else 0))
        ]
        for c in range(callers)
    ]


def open_plan(
    rng: random.Random,
    keys: Sequence[str],
    requests: int,
    rate: float,
    put_share: float,
    fanout_mean: float,
    fanout_cap: int,
) -> List[Request]:
    """Poisson arrivals at ``rate``; each a put or a geometric-fan-out multiget."""
    log_q = math.log(1.0 - 1.0 / fanout_mean)
    plan: List[Request] = []
    due = 0.0
    for _ in range(requests):
        due += rng.expovariate(rate)
        if rng.random() < put_share:
            plan.append(Request(due, (rng.choice(keys),), put=True))
        else:
            fanout = min(fanout_cap, 1 + int(math.log(1.0 - rng.random()) / log_q))
            plan.append(Request(due, tuple(rng.sample(keys, fanout))))
    return plan


async def _issue(
    client, request: Request, values: Dict[str, bytes], start: float, out: Outcome
) -> None:
    """Run one request, verify what it returned and record it in ``out``."""
    error = got = None
    try:
        if request.put:
            key = request.keys[0]
            # A put rewrites the key's canonical bytes, so a get that races
            # it is still verifiable; RuntimeClient.put raises unless every
            # replica acknowledged.
            await client.put(key, values[key])
        else:
            got = await client.multiget(request.keys)
    except Exception as exc:  # noqa: BLE001 - any failure is a counted failed request
        error = repr(exc)
    elapsed = time.perf_counter() - start  # before verifying: not the store's time
    if got is not None and any(got.get(key) != values[key] for key in request.keys):
        error = f"wrong or missing value in multiget {request.keys!r}"
    out.attempted += 1
    if error is None:
        out.rcts.append(elapsed)
    else:
        out.failed += 1
        out.first_error = out.first_error or error


async def run_closed(
    client, plans: Sequence[Sequence[Request]], values: Dict[str, bytes]
) -> Outcome:
    """Each caller keeps exactly one request in flight until its plan is done."""
    out = Outcome()

    async def caller(requests: Sequence[Request]) -> None:
        for request in requests:
            await _issue(client, request, values, time.perf_counter(), out)

    wall0, cpu0 = time.perf_counter(), time.process_time()
    await asyncio.gather(*(caller(requests) for requests in plans))
    out.wall_s = time.perf_counter() - wall0
    out.cpu_s = time.process_time() - cpu0
    return out


async def run_open(
    client, plan: Sequence[Request], values: Dict[str, bytes]
) -> Outcome:
    """Launch every request at its due time whatever the store is doing.

    A request's clock starts at its *due* time, so the wait a stall
    imposes on later requests is counted; ``late`` records how far behind
    the schedule each launch ran.
    """
    out = Outcome()
    origin = time.perf_counter()
    cpu0 = time.process_time()
    tasks = []
    for request in plan:
        due = origin + request.due
        await asyncio.sleep(max(0.0, due - time.perf_counter()))
        out.late.append(time.perf_counter() - due)
        tasks.append(asyncio.ensure_future(_issue(client, request, values, due, out)))
    await asyncio.gather(*tasks)
    out.wall_s = time.perf_counter() - origin
    out.cpu_s = time.process_time() - cpu0
    return out
