"""DAS — the Distributed Adaptive Scheduler (the paper's contribution).

DAS cuts mean request completion time by serving, at every server, the
operations of the request with the shortest estimated remaining
processing time first (*SRPT-first*).  It is *adaptive* in its
estimates: a request's remaining time is its speed-adjusted bottleneck,
folding in each server's measured service rate (learned from feedback
piggybacked on responses).  So the reconstructed DAS is rate-adjusted
shortest-bottleneck-first.

See DESIGN.md §2 for the reconstruction notes (the algorithm is rebuilt
from the paper's abstract; the full text was unavailable) and for why
the abstract's *LRPT-last* band is not part of it.
"""

from repro.core.das import (
    TAG_RPT,
    DasPolicy,
    DasTagger,
    remaining_processing_time,
)
from repro.core.estimator import EwmaEstimator, ServerEstimates
from repro.core.feedback import FeedbackMode

__all__ = [
    "DasPolicy",
    "DasTagger",
    "EwmaEstimator",
    "FeedbackMode",
    "ServerEstimates",
    "TAG_RPT",
    "remaining_processing_time",
]
