"""DAS — the Distributed Adaptive Scheduler (the paper's contribution).

DAS cuts mean request completion time with a *distributed combination* of
two classic disciplines:

* **SRPT-first** — among normal requests, serve operations of the request
  with the shortest estimated remaining processing time first;
* **LRPT-last** — requests whose estimated remaining processing time is
  far above the norm are demoted to a background band served only when
  nothing else is queued.

and it is *adaptive*: remaining-time estimates fold in each server's
measured service rate (learned from feedback piggybacked on responses),
and each queue's demotion threshold tracks its own queue length.

See DESIGN.md §2 for the reconstruction notes (the algorithm is rebuilt
from the paper's abstract; the full text was unavailable).
"""

from repro.core.das import (
    TAG_RPT,
    DasPolicy,
    DasQueue,
    DasTagger,
    remaining_processing_time,
)
from repro.core.estimator import EwmaEstimator, ServerEstimates
from repro.core.feedback import FeedbackMode

__all__ = [
    "DasPolicy",
    "DasQueue",
    "DasTagger",
    "EwmaEstimator",
    "FeedbackMode",
    "ServerEstimates",
    "TAG_RPT",
    "remaining_processing_time",
]
