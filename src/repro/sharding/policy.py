"""The ``laned`` scheduling policy: size lanes wrapping an inner policy.

Registered like any other scheduler, so the whole experiment machinery
(``ClusterConfig.scheduler``, ``SchedulerSpec``, the runtime executor)
picks it up with zero special-casing::

    SchedulerSpec("Lanes+DAS", "laned", {"inner": "das"})

The client-side tagger is the *inner* policy's tagger — DAS's RPT and
horizon tags still flow to the server and order operations within each
lane.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.schedulers.base import ClientTagger, SchedulingPolicy
from repro.schedulers.registry import create_policy, register_policy
from repro.sharding.cutoff import WindowedQuantileCutoff
from repro.sharding.lanes import SizeLaneQueue


@register_policy
class LanedPolicy(SchedulingPolicy):
    """Size-aware two-lane tier composed over any registered policy.

    Parameters
    ----------
    inner / inner_params:
        The policy ordering operations *within* each lane.
    small_share:
        The small lane's weighted-fair share of server capacity.
    cutoff_quantile / cutoff_window / cutoff_min_samples / cutoff_refresh:
        Knobs of :class:`~repro.sharding.cutoff.WindowedQuantileCutoff`.
    cutoff_initial:
        Starting cutoff in bytes (the permanent cutoff when adaptation
        is off).
    adaptive_cutoff:
        When False the cutoff is frozen at ``cutoff_initial`` — the
        static-cutoff ablation arm.
    """

    name = "laned"

    def __init__(
        self,
        inner: str = "das",
        inner_params: Optional[Dict[str, Any]] = None,
        small_share: float = 0.7,
        cutoff_quantile: float = 0.97,
        cutoff_window: int = 512,
        cutoff_min_samples: int = 64,
        cutoff_refresh: int = 64,
        cutoff_initial: float = 8192.0,
        adaptive_cutoff: bool = True,
    ):
        super().__init__(
            inner=inner,
            inner_params=dict(inner_params or {}),
            small_share=small_share,
            cutoff_quantile=cutoff_quantile,
            cutoff_window=cutoff_window,
            cutoff_min_samples=cutoff_min_samples,
            cutoff_refresh=cutoff_refresh,
            cutoff_initial=cutoff_initial,
            adaptive_cutoff=adaptive_cutoff,
        )
        self.inner_policy = create_policy(inner, **(inner_params or {}))
        self.needs_feedback = self.inner_policy.needs_feedback
        self.small_share = small_share
        self._cutoff_kwargs = dict(
            quantile=cutoff_quantile,
            window=cutoff_window,
            min_samples=cutoff_min_samples,
            refresh=cutoff_refresh,
            initial=cutoff_initial,
            enabled=adaptive_cutoff,
        )

    def make_queue(self) -> SizeLaneQueue:
        # Each server adapts its own cutoff from the sizes it actually
        # sees — fully distributed, like every other estimate in DAS.
        return SizeLaneQueue(
            inner_policy=self.inner_policy,
            cutoff=WindowedQuantileCutoff(**self._cutoff_kwargs),
            small_share=self.small_share,
        )

    def make_tagger(self) -> ClientTagger:
        return self.inner_policy.make_tagger()
