"""Per-request shortest-job-first.

``sjf-req`` orders by the *request's total* demand, stamped by the client
at dispatch — the non-adaptive "SRPT-first" half of DAS in isolation
(demands are static after dispatch, so this is shortest-job, not
shortest-remaining).  An untagged operation is keyed on its own demand,
so at fan-out 1 this is classic per-operation SJF.
"""

from __future__ import annotations

from typing import Optional

from repro.kvstore.items import Request
from repro.schedulers.base import ClientTagger, SchedulingPolicy, ServerQueue
from repro.schedulers.keyed import KeyedHeapQueue
from repro.schedulers.registry import register_policy

TAG_TOTAL_DEMAND = "total_demand"


class TotalDemandTagger(ClientTagger):
    """Stamps each operation with its request's total demand."""

    def tag_request(self, request: Request, now: float, estimates: Optional[object]) -> None:
        total = request.total_demand
        for op in request.operations:
            op.tag[TAG_TOTAL_DEMAND] = total


@register_policy
class SjfReqPolicy(SchedulingPolicy):
    """Per-request shortest-job-first on total demand."""

    name = "sjf-req"

    def make_queue(self) -> ServerQueue:
        return KeyedHeapQueue(TAG_TOTAL_DEMAND)

    def make_tagger(self) -> ClientTagger:
        return TotalDemandTagger()
