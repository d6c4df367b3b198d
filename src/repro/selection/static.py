"""Signal-free selection policies: primary, random, round-robin.

These are the policies ported from the old string dispatch in
``repro.kvstore.replication`` — they consume no server state, so they
serve as the blind baselines the adaptive policies are measured against
(X1/X3) and as the zero-overhead defaults.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.errors import ConfigError
from repro.selection.base import SelectionPolicy
from repro.sim.rand import BatchedStream, as_batched

#: Replicas sampled per power-of-d (and Dodoor) decision.
D_CHOICES = 2


def sample_choices(rng: BatchedStream, candidates: Sequence[int]) -> Sequence[int]:
    """:data:`D_CHOICES` distinct candidates, or all when there are no more.

    Partial Fisher-Yates over an index list, so the first element is
    uniform over the candidates.
    """
    n = len(candidates)
    if D_CHOICES >= n:
        return candidates
    idx = list(range(n))
    for i in range(D_CHOICES):
        j = i + rng.integers(0, n - i)
        idx[i], idx[j] = idx[j], idx[i]
    return [candidates[i] for i in idx[:D_CHOICES]]


class PrimaryPolicy(SelectionPolicy):
    """Always read the first replica — the paper's evaluation setting."""

    name = "primary"

    def _choose(self, key: str, candidates: Sequence[int], now: float) -> int:
        return candidates[0]


class RandomPolicy(SelectionPolicy):
    """Uniform random replica (requires an rng for reproducibility)."""

    name = "random"

    def __init__(self, rng):
        super().__init__()
        if rng is None:
            raise ConfigError("selection='random' requires an rng")
        self._rng: BatchedStream = as_batched(rng)

    def _choose(self, key: str, candidates: Sequence[int], now: float) -> int:
        return candidates[self._rng.integers(0, len(candidates))]


class RoundRobinPolicy(SelectionPolicy):
    """Rotate over each key's replica set, one counter per key."""

    name = "round_robin"

    def __init__(self):
        super().__init__()
        self._counters: Dict[str, int] = {}

    def _choose(self, key: str, candidates: Sequence[int], now: float) -> int:
        counter = self._counters.get(key, 0)
        self._counters[key] = counter + 1
        return candidates[counter % len(candidates)]


class LeastWorkPolicy(SelectionPolicy):
    """Least estimated queued work (the original feedback-driven policy).

    Scores each replica by the client's queued-work estimate in seconds,
    ``estimates.queued_work(server_id, now)``; ties break toward the
    lower server id.  Rate and staleness are deliberately ignored —
    :class:`~repro.selection.scored.TarsPolicy` is the refinement that
    accounts for both.
    """

    name = "least_estimated_work"
    wants_feedback = True

    def __init__(self, estimates):
        super().__init__()
        if estimates is None:
            raise ConfigError("selection='least_estimated_work' requires estimates")
        self._work_fn = estimates.queued_work

    def _choose(self, key: str, candidates: Sequence[int], now: float) -> int:
        return min(candidates, key=lambda sid: (self._work_fn(sid, now), sid))


class PowerOfDPolicy(SelectionPolicy):
    """Power-of-d-choices: sample :data:`D_CHOICES` replicas, take the least loaded.

    The classic herd-avoidance compromise: sampling decorrelates clients
    (they do not all chase the same momentarily-idle server) while d >= 2
    guarantees the strictly-worst sampled replica is never picked.  Load
    is the estimated queued work when estimates are available, else the
    local requests-in-flight count.
    """

    name = "power_of_d"
    wants_inflight = True
    wants_feedback = True

    def __init__(self, rng, estimates=None):
        super().__init__()
        if rng is None:
            raise ConfigError("selection='power_of_d' requires an rng")
        self._rng: BatchedStream = as_batched(rng)
        self._estimates = estimates

    def _load(self, server_id: int, now: float) -> float:
        if self._estimates is not None:
            return self._estimates.queued_work(server_id, now)
        return float(self.inflight_of(server_id))

    def _choose(self, key: str, candidates: Sequence[int], now: float) -> int:
        sampled = sample_choices(self._rng, candidates)
        return min(sampled, key=lambda sid: (self._load(sid, now), sid))
