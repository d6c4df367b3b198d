"""Replica placement and read-replica selection.

Keys are replicated on the first ``replication_factor`` distinct servers
clockwise from their ring position (Dynamo-style).  GET operations may be
served by any replica; a :class:`~repro.selection.SelectionPolicy`
decides which — the *selection* lever a front-end has besides scheduling
(the paper's evaluation uses primary-only reads; the policy zoo in
:mod:`repro.selection` powers the X1/X3 extension experiments).

:class:`ReplicaPlacement` is a ring plus a policy: it resolves each
key's replica set and says whether every read goes to the primary
(``primary_reads``).  When not, the client asks ``placement.policy``
for each pick with one ``select`` call, and feeds it its
dispatch/response/feedback events directly, saying what time it is
(``env.now``).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.errors import ConfigError
from repro.kvstore.partitioning import ConsistentHashRing
from repro.selection import (
    SELECTION_POLICY_NAMES,
    SelectionPolicy,
    create_selection_policy,
)


class ReplicaPlacement:
    """Maps keys to replica sets and holds the read-replica policy.

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
    estimates:
        The client's :class:`~repro.core.estimator.ServerEstimates`,
        required by the estimate-scored policies
        (``least_estimated_work``, ``c3``, ``tars``).
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
                **(selection_params or {}),
            )
        self.ring = ring
        self.replication_factor = replication_factor
        self.policy = policy
        self.selection = policy.name
        #: Every read goes to the primary: with one replica every policy
        #: degenerates to "first (only) entry".
        self.primary_reads = policy.name == "primary" or replication_factor == 1
        #: Hot-path gates: callers skip the policy's hooks entirely when
        #: the policy has no use for the signal (or never gets to choose).
        self.wants_inflight = policy.wants_inflight and not self.primary_reads
        self.wants_feedback = policy.wants_feedback and not self.primary_reads

    def replicas(self, key: str) -> List[int]:
        """The full replica set for ``key`` (primary first)."""
        return self.ring.preference_list(key, self.replication_factor)

    def __repr__(self) -> str:
        return (
            f"ReplicaPlacement(n={self.replication_factor}, "
            f"selection={self.selection!r})"
        )
