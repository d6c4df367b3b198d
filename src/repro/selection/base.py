"""The replica-selection policy interface shared by sim and runtime.

A :class:`SelectionPolicy` answers one question — *which replica serves
this GET?* — from whatever signals it declares an interest in:

* ``wants_inflight`` — the caller reports every dispatch/response via
  :meth:`on_dispatch` / :meth:`on_response`, giving the policy a local
  requests-in-flight view and per-server latency samples;
* ``wants_feedback`` — the caller forwards every
  :class:`~repro.kvstore.items.Feedback` snapshot it receives via
  :meth:`observe_feedback` (piggybacked replies, periodic broadcasts, and
  probe replies all arrive through this one funnel);
* ``wants_probes`` — the runtime client should additionally issue
  control-plane ``probe`` messages to keep the policy's view fresh for
  servers it is not currently reading from (the simulator's piggybacked
  feedback makes explicit probes redundant there).

Callers gate the hooks on these flags so the paper-default ``primary``
policy costs nothing on the hot path.  Time is always passed in (the
simulator's ``env.now`` or the runtime's ``time.monotonic()``); policies
never read a clock themselves, which keeps cells deterministic under the
parallel experiment engine.
"""

from __future__ import annotations

from typing import Any, ClassVar, Dict, Optional, Sequence

#: The control-plane message kinds the accounting recognises, in the
#: order they appear in stats output.  ``probe`` is a request/response
#: round-trip the client initiated; ``report`` is an unsolicited periodic
#: broadcast from a server; ``feedback`` is a snapshot piggybacked on a
#: data-path reply (marginal wire cost, but counted so the overhead axis
#: is complete).
CONTROL_MESSAGE_KINDS = ("probe", "report", "feedback")

#: Nominal wire size of one feedback/report snapshot (four 8-byte fields
#: plus a server id) and of one probe request.  Both halves use the same
#: nominal sizes so sim and runtime byte accounting are comparable.
FEEDBACK_WIRE_BYTES = 40
PROBE_WIRE_BYTES = 8


class SelectionPolicy:
    """Chooses the replica that serves a GET, from client-local signals.

    Subclasses implement :meth:`_choose`; the public :meth:`select`
    wrapper handles the single-candidate short-circuit and pick counting.
    A policy on the fleet cell's per-read path (Dodoor) overrides
    :meth:`select` whole instead, so a decision is one call.  All
    tie-breaks are ``(score, server_id)`` so selection is fully
    deterministic given the same observation sequence.
    """

    #: Registry name (set by each concrete policy).
    name: ClassVar[str] = "?"
    #: True when on_dispatch/on_response carry signal for this policy.
    wants_inflight: ClassVar[bool] = False
    #: True when observe_feedback carries signal for this policy.
    wants_feedback: ClassVar[bool] = False
    #: True when the runtime should issue control-plane probes for it.
    wants_probes: ClassVar[bool] = False
    #: True when the cluster should run periodic server load reports
    #: (asynchronous broadcast feeding observe_feedback) for it.
    wants_load_reports: ClassVar[bool] = False

    def __init__(self):
        #: server_id -> reads routed there by this policy.
        self.picks: Dict[int, int] = {}
        #: server_id -> operations dispatched but not yet answered.
        self.inflight: Dict[int, int] = {}
        self.decisions = 0
        #: kind -> control-plane messages attributed to keeping this
        #: policy's view fresh (see CONTROL_MESSAGE_KINDS).
        self.control_messages: Dict[str, int] = dict.fromkeys(
            CONTROL_MESSAGE_KINDS, 0
        )
        #: kind -> payload bytes carried by those messages.
        self.control_bytes: Dict[str, int] = dict.fromkeys(
            CONTROL_MESSAGE_KINDS, 0
        )

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def select(self, key: str, candidates: Sequence[int], now: float = 0.0) -> int:
        """Pick the replica of ``key`` to read from, out of ``candidates``."""
        if len(candidates) == 1:
            chosen = candidates[0]
        else:
            chosen = self._choose(key, candidates, now)
        self.decisions += 1
        self.picks[chosen] = self.picks.get(chosen, 0) + 1
        return chosen

    def _choose(self, key: str, candidates: Sequence[int], now: float) -> int:
        """Policy-specific choice among >= 2 candidates."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Signal hooks (no-ops unless the policy wants them)
    # ------------------------------------------------------------------
    def on_dispatch(self, server_id: int, now: float = 0.0) -> None:
        """An operation was just sent to ``server_id``."""
        self.inflight[server_id] = self.inflight.get(server_id, 0) + 1

    def on_response(
        self, server_id: int, now: float = 0.0, latency: float = 0.0
    ) -> None:
        """A response from ``server_id`` arrived after ``latency`` seconds."""
        remaining = self.inflight.get(server_id, 0)
        if remaining > 0:
            self.inflight[server_id] = remaining - 1

    def observe_feedback(self, feedback, now: float = 0.0) -> None:
        """A server feedback snapshot arrived (reply, broadcast, or probe)."""

    def on_reply(
        self, server_id: int, now: float, latency: Optional[float], feedback
    ) -> None:
        """A data reply from ``server_id`` arrived: its hooks in one call.

        What :meth:`on_response` does when ``latency`` is given and the
        policy ``wants_inflight``; when ``feedback`` rode the reply and
        the policy ``wants_feedback``, the piggybacked snapshot's
        accounting (zero messages, :data:`FEEDBACK_WIRE_BYTES` bytes of
        kind ``feedback``) and :meth:`observe_feedback`.  A caller whose
        in-flight view ends elsewhere (the runtime's slots) passes None
        for ``latency``.
        """
        if latency is not None and self.wants_inflight:
            self.on_response(server_id, now, latency)
        if feedback is not None and self.wants_feedback:
            self.control_bytes["feedback"] += FEEDBACK_WIRE_BYTES
            self.observe_feedback(feedback, now)

    # ------------------------------------------------------------------
    # Control-plane accounting
    # ------------------------------------------------------------------
    def record_control_message(
        self, kind: str, messages: int = 1, payload_bytes: int = 0
    ) -> None:
        """Attribute ``messages`` control-plane messages of ``kind``.

        Callers (the sim client, the runtime client) record at the point
        a message crosses the wire on the policy's behalf: a probe
        round-trip is two messages, a broadcast report is one per
        recipient, a piggybacked snapshot is zero extra messages but its
        payload bytes still count.
        """
        if kind not in self.control_messages:
            raise ValueError(
                f"unknown control message kind {kind!r}; "
                f"one of {CONTROL_MESSAGE_KINDS}"
            )
        self.control_messages[kind] += messages
        self.control_bytes[kind] += payload_bytes

    def control_messages_total(self) -> int:
        """All control-plane messages recorded, across kinds."""
        return sum(self.control_messages.values())

    # ------------------------------------------------------------------
    def inflight_of(self, server_id: int) -> int:
        """Local requests-in-flight count for ``server_id``."""
        return self.inflight.get(server_id, 0)

    def stats(self) -> Dict[str, Any]:
        """JSON-able decision/pick summary for ``stats()`` surfaces."""
        total = self.control_messages_total()
        return {
            "policy": self.name,
            "decisions": self.decisions,
            "picks": dict(sorted(self.picks.items())),
            "inflight": {s: n for s, n in sorted(self.inflight.items()) if n},
            "control_plane": {
                "messages_sent": dict(self.control_messages),
                "bytes_sent": dict(self.control_bytes),
                "messages_total": total,
                "messages_per_decision": (
                    total / self.decisions if self.decisions else 0.0
                ),
            },
        }

    def __repr__(self) -> str:
        return f"{type(self).__name__}(decisions={self.decisions})"
