"""The ``laned`` scheduling policy: size lanes wrapping an inner policy.

Registered like any other scheduler, so the whole experiment machinery
(``ClusterConfig.scheduler``, ``SchedulerSpec``, the runtime executor)
picks it up with zero special-casing::

    SchedulerSpec("Lanes+DAS", "laned", {"inner": "das"})

The client-side tagger is the *inner* policy's tagger — DAS's RPT tag
still flows to the server and orders operations within each lane.
"""

from __future__ import annotations

from repro.schedulers.base import ClientTagger, SchedulingPolicy
from repro.schedulers.registry import create_policy, register_policy
from repro.sharding.cutoff import WindowedQuantileCutoff
from repro.sharding.lanes import SizeLaneQueue


@register_policy
class LanedPolicy(SchedulingPolicy):
    """Size-aware two-lane tier composed over any registered policy.

    Parameters
    ----------
    inner:
        The policy, with its defaults, ordering operations *within* each
        lane.
    small_share:
        The small lane's weighted-fair share of server capacity.
    cutoff_quantile:
        Share of recent sizes routed small, see
        :class:`~repro.sharding.cutoff.WindowedQuantileCutoff` (whose
        other defaults the cutoff keeps).
    adaptive_cutoff:
        When False the cutoff is frozen at its initial 8 KiB — the
        static-cutoff ablation arm.
    """

    name = "laned"

    def __init__(
        self,
        inner: str = "das",
        small_share: float = 0.7,
        cutoff_quantile: float = 0.97,
        adaptive_cutoff: bool = True,
    ):
        self.params = dict(
            inner=inner,
            small_share=small_share,
            cutoff_quantile=cutoff_quantile,
            adaptive_cutoff=adaptive_cutoff,
        )
        self.inner_policy = create_policy(inner)
        self.needs_feedback = self.inner_policy.needs_feedback

    def make_queue(self) -> SizeLaneQueue:
        # Each server adapts its own cutoff from the sizes it actually
        # sees — fully distributed, like every other estimate in DAS.
        params = self.params
        return SizeLaneQueue(
            inner_policy=self.inner_policy,
            cutoff=WindowedQuantileCutoff(
                quantile=params["cutoff_quantile"], enabled=params["adaptive_cutoff"]
            ),
            small_share=params["small_share"],
        )

    def make_tagger(self) -> ClientTagger:
        return self.inner_policy.make_tagger()
