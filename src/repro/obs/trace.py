"""Per-request trace spans: tag → enqueue → service → reply.

A *request trace* records the life of one sampled multiget: the moment
the client tagged it, one :class:`OpSpan` per operation (enqueue at the
server, service start/end), and the moment the last reply landed back at
the client.

The timestamps live on the operation anyway; the *span assembly* is what
gets sampled.  Sampling is deterministic (every ``1/sample_rate``-th
completed request, starting with the first), so short test runs always
produce at least one trace and long runs stay affordable.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import ConfigError

#: Trace meta key listing the fault kinds active when a request completed
#: (comma-joined, e.g. ``"crash,packet_loss"``); set only during chaos runs.
OBS_FAULT = "obs.fault"

#: Tag key a client sets to ask servers to return span timestamps.
TRACE_REQUESTED = "trace"


def _none_if_nan(value: float) -> Optional[float]:
    return None if math.isnan(value) else value


@dataclass
class OpSpan:
    """Timing for one operation at one server."""

    key: str
    server_id: int
    enqueue: float = float("nan")
    service_start: float = float("nan")
    service_end: float = float("nan")

    @classmethod
    def from_op(cls, op: Any, server_id: Optional[int] = None) -> "OpSpan":
        """Build a span from any op-shaped object (sim or runtime).

        Reads ``key``/``enqueue_time``/``start_time``/``finish_time``
        and, unless ``server_id`` is given, the op's own ``server_id``.
        """
        return cls(
            key=op.key,
            server_id=server_id if server_id is not None else op.server_id,
            enqueue=op.enqueue_time,
            service_start=op.start_time,
            service_end=op.finish_time,
        )

    def monotone(self) -> bool:
        """Enqueue <= service_start <= service_end (NaNs fail)."""
        return self.enqueue <= self.service_start <= self.service_end


@dataclass
class RequestTrace:
    """One sampled request: client-side endpoints plus per-op spans."""

    request_id: int
    tag_time: float
    reply_time: float = float("nan")
    ops: List[OpSpan] = field(default_factory=list)
    meta: Dict[str, Any] = field(default_factory=dict)

    def monotone(self) -> bool:
        """True when tag <= every op's enqueue chain <= reply."""
        if math.isnan(self.tag_time) or math.isnan(self.reply_time):
            return False
        for span in self.ops:
            if not span.monotone():
                return False
            if not (self.tag_time <= span.enqueue and span.service_end <= self.reply_time):
                return False
        return True

    def as_dict(self) -> Dict[str, Any]:
        # Unset timestamps are NaN internally; export them as None so the
        # dicts compare equal across process boundaries (NaN != NaN breaks
        # parallel-vs-sequential identity checks) and serialize to valid
        # strict JSON (null, not the nonstandard NaN token).
        out = asdict(self)
        out["reply_time"] = _none_if_nan(out["reply_time"])
        for op in out["ops"]:
            for when in ("enqueue", "service_start", "service_end"):
                op[when] = _none_if_nan(op[when])
        return out


class Tracer:
    """Deterministic sampling collector of request traces.

    Parameters
    ----------
    sample_rate:
        Fraction of requests to trace, in [0, 1].  0 disables tracing;
        1 traces everything.  Sampling is stride-based: the first request
        is always sampled, then every ``round(1/rate)``-th thereafter.
    capacity:
        Retention bound; once full, the oldest traces are dropped (the
        collector is a ring, not a leak).
    """

    def __init__(self, sample_rate: float = 1 / 128, capacity: int = 512):
        if not 0 <= sample_rate <= 1:
            raise ConfigError("sample_rate must be in [0, 1]")
        if capacity < 1:
            raise ConfigError("capacity must be >= 1")
        self.sample_rate = sample_rate
        self.capacity = capacity
        self._stride = 0 if sample_rate == 0 else max(1, round(1 / sample_rate))
        self._seen = 0
        self.sampled = 0
        self.dropped = 0
        self._traces: List[RequestTrace] = []

    @property
    def enabled(self) -> bool:
        return self._stride > 0

    def should_sample(self) -> bool:
        """Decide (and count) one request; deterministic, no RNG."""
        if self._stride == 0:
            return False
        take = self._seen % self._stride == 0
        self._seen += 1
        return take

    def record(self, trace: RequestTrace) -> None:
        self.sampled += 1
        self._traces.append(trace)
        if len(self._traces) > self.capacity:
            del self._traces[0]
            self.dropped += 1

    @property
    def traces(self) -> List[RequestTrace]:
        return list(self._traces)

    def clear(self) -> None:
        self._traces.clear()

    def as_dicts(self) -> List[Dict[str, Any]]:
        return [t.as_dict() for t in self._traces]

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.as_dicts(), indent=indent)
