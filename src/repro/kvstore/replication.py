"""Replica placement and read-replica selection.

Keys are replicated on the first ``replication_factor`` distinct servers
clockwise from their ring position (Dynamo-style).  GET operations may be
served by any replica; a :class:`~repro.selection.SelectionPolicy`
decides which — the *selection* lever a front-end has besides scheduling
(the paper's evaluation uses primary-only reads; the policy zoo in
:mod:`repro.selection` powers the X1/X3 extension experiments).

:class:`ReplicaPlacement` binds a policy to a ring: it resolves each
key's replica set, delegates the pick, and forwards the client's
dispatch/response/feedback events to the policy; the caller says what
time it is (``env.now``), as it does to the policy hooks themselves.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.errors import ConfigError
from repro.kvstore.items import Feedback
from repro.kvstore.partitioning import ConsistentHashRing
from repro.selection import (
    SELECTION_POLICY_NAMES,
    SelectionPolicy,
    create_selection_policy,
)


class ReplicaPlacement:
    """Maps keys to replica sets and picks a read replica per operation.

    Parameters
    ----------
    ring:
        The consistent-hash ring.
    replication_factor:
        Number of replicas per key (1 = no replication).
    selection:
        Policy name from :data:`repro.selection.SELECTION_POLICY_NAMES`
        (``"primary"`` is the paper default).  Ignored when ``policy`` is
        given.
    rng:
        Random generator for policies that sample (``random``,
        ``power_of_d``).
    work_estimate:
        Legacy callable ``server_id -> estimated queued work`` used by
        ``"least_estimated_work"``.
    estimates:
        The client's :class:`~repro.core.estimator.ServerEstimates`,
        required by the estimate-scored policies (``least_estimated_work``
        without a callback, ``c3``, ``tars``).
    selection_params:
        Extra keyword knobs forwarded to the policy constructor.
    policy:
        A pre-built policy object (overrides ``selection``/knobs).
    """

    POLICIES = SELECTION_POLICY_NAMES

    def __init__(
        self,
        ring: ConsistentHashRing,
        replication_factor: int = 1,
        selection: str = "primary",
        rng: Optional[np.random.Generator] = None,
        work_estimate: Optional[Callable[[int], float]] = None,
        estimates=None,
        selection_params: Optional[dict] = None,
        policy: Optional[SelectionPolicy] = None,
    ):
        if replication_factor < 1:
            raise ConfigError("replication_factor must be >= 1")
        if replication_factor > len(ring.servers):
            raise ConfigError(
                f"replication_factor {replication_factor} exceeds cluster "
                f"size {len(ring.servers)}"
            )
        if policy is None:
            policy = create_selection_policy(
                selection,
                rng=rng,
                estimates=estimates,
                work_estimate=work_estimate,
                **(selection_params or {}),
            )
        self.ring = ring
        self.replication_factor = replication_factor
        self.policy = policy
        self.selection = policy.name
        # With one replica every policy degenerates to "first (only) entry".
        self._primary_reads = policy.name == "primary" or replication_factor == 1
        #: Hot-path gates: callers skip the forwarding hooks entirely when
        #: the policy has no use for the signal (or never gets to choose).
        self.wants_inflight = policy.wants_inflight and not self._primary_reads
        self.wants_feedback = policy.wants_feedback and not self._primary_reads

    def replicas(self, key: str) -> List[int]:
        """The full replica set for ``key`` (primary first)."""
        return self.ring.preference_list(key, self.replication_factor)

    def select_read_replica(self, key: str, now: float = 0.0) -> int:
        """Choose the server that will serve a GET for ``key`` at ``now``."""
        if self._primary_reads:
            # Primary-only reads (the paper default) are the hot path:
            # skip the replica-set indirection entirely.
            return self.ring.preference_list(key, self.replication_factor)[0]
        candidates = self.replicas(key)
        if len(candidates) == 1:
            return candidates[0]
        return self.policy.select(key, candidates, now)

    def write_set(self, key: str) -> List[int]:
        """Servers a PUT must reach (all replicas)."""
        return self.replicas(key)

    # ------------------------------------------------------------------
    # Signal forwarding (gate on wants_inflight / wants_feedback)
    # ------------------------------------------------------------------
    def record_dispatch(self, server_id: int, now: float) -> None:
        """An operation was sent to ``server_id`` at ``now`` (in-flight +1)."""
        self.policy.on_dispatch(server_id, now)

    def record_response(self, server_id: int, now: float, latency: float) -> None:
        """A response arrived from ``server_id`` after ``latency`` seconds."""
        self.policy.on_response(server_id, now, latency)

    def observe_feedback(self, feedback: Feedback, now: float) -> None:
        """Forward a feedback snapshot to the policy (probe funnel)."""
        self.policy.observe_feedback(feedback, now)

    def record_control_message(
        self, kind: str, messages: int = 1, payload_bytes: int = 0
    ) -> None:
        """Attribute control-plane traffic to the selection policy."""
        self.policy.record_control_message(kind, messages, payload_bytes)

    def selection_stats(self) -> dict:
        """The policy's decision/pick summary."""
        return self.policy.stats()

    def __repr__(self) -> str:
        return (
            f"ReplicaPlacement(n={self.replication_factor}, "
            f"selection={self.selection!r})"
        )
