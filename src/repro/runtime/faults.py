"""Fault injection for the asyncio runtime.

A :class:`FaultInjector` attached to a
:class:`~repro.runtime.server.KVServer` is consulted at connection-accept
time and once per incoming message, and decides whether the server should
behave (``pass``), stay silent (``drop`` — the message is swallowed and
never served), or answer late (``delay``); :class:`Outage` also refuses
new connections.  Policies are deterministic given their seed, so chaos
tests can script failures reproducibly.  A fault plan's windowed entries
reach the runtime as these policies (:mod:`repro.faults.runtime`); the
simulator's ``Pause``, which parks work instead of dropping it, has no
exact twin here — :class:`Outage` is the nearest.

Typical use through the cluster harness::

    async with LocalCluster(n_servers=4) as cluster:
        cluster.inject(0, Outage(0.0, 1.5))   # server 0 dark for 1.5 s
        cluster.inject(1, DropReplies(count=2))
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigError

#: Decision actions a policy may return for one message.
PASS = "pass"
DROP = "drop"
DELAY = "delay"


@dataclass(frozen=True)
class FaultDecision:
    """What the server should do with one incoming message.

    ``delay`` is a fixed hold-back in seconds; ``delay_per_byte`` adds a
    size-dependent component the server scales by the value bytes the
    message moves (how a slow node hurts large operations more than
    small ones).
    """

    action: str = PASS
    delay: float = 0.0
    delay_per_byte: float = 0.0

    @property
    def replies(self) -> bool:
        return self.action in (PASS, DELAY)


#: Shared "behave normally" decision — the hot path (no faults installed)
#: must not allocate per message.
PASS_DECISION = FaultDecision(PASS)


class FaultPolicy:
    """Base class: one scripted misbehaviour.

    ``arm`` is called when the policy is installed; window-based policies
    interpret their times relative to that instant, as a fault plan's
    windows are relative to run start.
    """

    def arm(self, now: float) -> None:
        self._armed_at = now

    @property
    def armed_at(self) -> float:
        return getattr(self, "_armed_at", 0.0)

    def connection_allowed(self, now: float) -> bool:
        """Whether a new connection may be accepted right now."""
        return True

    def decide(self, message, now: float) -> FaultDecision:
        """Decision for one incoming message (default: behave)."""
        return FaultDecision(PASS)


class Outage(FaultPolicy):
    """Unreachable window: ``(start, end)`` seconds after installation.

    During the window the server refuses new connections and silently
    swallows every message on existing ones; from the client's point of
    view the server hangs.  This is *not* the simulator's ``Pause``: a
    paused simulated server parks what arrives and serves it when the
    window ends, while the messages an ``Outage`` swallows are never
    served or replayed (the client's retry layer owns redelivery), and
    operations queued before the window keep being served and answered.
    """

    def __init__(self, start: float, end: float):
        if not 0 <= start < end:
            raise ConfigError(f"invalid outage window ({start}, {end})")
        self.start = start
        self.end = end

    def _down(self, now: float) -> bool:
        elapsed = now - self.armed_at
        return self.start <= elapsed < self.end

    def connection_allowed(self, now: float) -> bool:
        return not self._down(now)

    def decide(self, message, now: float) -> FaultDecision:
        return FaultDecision(DROP) if self._down(now) else FaultDecision(PASS)

    def __repr__(self) -> str:
        return f"Outage({self.start}, {self.end})"


class DropReplies(FaultPolicy):
    """Swallow replies — either the first ``count`` or with ``probability``.

    ``count`` mode is fully deterministic; ``probability`` mode draws from
    a generator seeded by ``seed`` so runs are repeatable.
    """

    def __init__(
        self,
        count: Optional[int] = None,
        probability: float = 0.0,
        seed: int = 0,
    ):
        if count is None and probability <= 0.0:
            raise ConfigError("DropReplies needs count or probability > 0")
        if not 0.0 <= probability <= 1.0:
            raise ConfigError(f"probability must be in [0, 1], got {probability}")
        self.remaining = count
        self.probability = probability
        self._rng = np.random.default_rng(seed)

    def decide(self, message, now: float) -> FaultDecision:
        if self.remaining is not None:
            if self.remaining > 0:
                self.remaining -= 1
                return FaultDecision(DROP)
            return FaultDecision(PASS)
        if self._rng.random() < self.probability:
            return FaultDecision(DROP)
        return FaultDecision(PASS)


class DelayReplies(FaultPolicy):
    """Hold replies back by ``delay`` seconds (first ``count``, or all).

    ``delay_per_byte`` adds a size-dependent component — used by the
    SlowNode approximation so a slowed server stays proportionally slow
    on large values, matching the simulator's service-speed semantics.
    """

    def __init__(
        self,
        delay: float = 0.0,
        count: Optional[int] = None,
        delay_per_byte: float = 0.0,
    ):
        if delay < 0 or delay_per_byte < 0:
            raise ConfigError("delays must be >= 0")
        if delay <= 0 and delay_per_byte <= 0:
            raise ConfigError("DelayReplies needs delay or delay_per_byte > 0")
        self.delay = delay
        self.delay_per_byte = delay_per_byte
        self.remaining = count

    def decide(self, message, now: float) -> FaultDecision:
        if self.remaining is not None:
            if self.remaining <= 0:
                return FaultDecision(PASS)
            self.remaining -= 1
        return FaultDecision(
            DELAY, delay=self.delay, delay_per_byte=self.delay_per_byte
        )


@dataclass
class FaultCounters:
    """Observability: what the injector actually did."""

    dropped: int = 0
    delayed: int = 0
    refused_connections: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "dropped": self.dropped,
            "delayed": self.delayed,
            "refused_connections": self.refused_connections,
        }

    @property
    def total(self) -> int:
        return self.dropped + self.delayed + self.refused_connections


@dataclass
class FaultInjector:
    """Per-server fault switchboard the server consults on every message.

    Policies compose: the *worst* decision wins (drop > delay > pass),
    and delays add up, so e.g. an ``Outage`` layered over a
    ``DelayReplies`` behaves as expected.
    """

    policies: List[FaultPolicy] = field(default_factory=list)
    counters: FaultCounters = field(default_factory=FaultCounters)

    _SEVERITY = {PASS: 0, DELAY: 1, DROP: 2}

    def add(self, policy: FaultPolicy, now: Optional[float] = None) -> None:
        policy.arm(time.monotonic() if now is None else now)
        self.policies.append(policy)

    def remove(self, policy: FaultPolicy) -> None:
        """Uninstall one policy; a no-op if it is not (or no longer) armed."""
        try:
            self.policies.remove(policy)
        except ValueError:
            pass

    def clear(self) -> None:
        self.policies.clear()

    def connection_allowed(self, now: Optional[float] = None) -> bool:
        if not self.policies:
            return True
        now = time.monotonic() if now is None else now
        if all(p.connection_allowed(now) for p in self.policies):
            return True
        self.counters.refused_connections += 1
        return False

    def decide(self, message, now: Optional[float] = None) -> FaultDecision:
        if not self.policies:
            return PASS_DECISION
        now = time.monotonic() if now is None else now
        worst = PASS_DECISION
        total_delay = 0.0
        total_per_byte = 0.0
        for policy in self.policies:
            decision = policy.decide(message, now)
            if decision.action == DELAY:
                total_delay += decision.delay
                total_per_byte += decision.delay_per_byte
            if self._SEVERITY[decision.action] > self._SEVERITY[worst.action]:
                worst = decision
        if worst.action in (PASS, DELAY) and (total_delay > 0 or total_per_byte > 0):
            worst = FaultDecision(
                DELAY, delay=total_delay, delay_per_byte=total_per_byte
            )
        if worst.action == DROP:
            self.counters.dropped += 1
        elif worst.action == DELAY:
            self.counters.delayed += 1
        return worst
