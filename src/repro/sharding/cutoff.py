"""Online size-cutoff estimation for the two-lane service tier.

Minos (Didona & Zwaenepoel, *Size-aware Sharding*) splits requests into
"small" and "large" at a cutoff chosen so that the small lane keeps the
vast majority of *operations* while the large lane absorbs the vast
majority of *bytes*.  We adapt the cutoff online as a windowed quantile
of the observed size stream: deterministic (no clock, no rng), cheap
(one sort per :data:`REFRESH` observations over a bounded ring buffer),
and robust to workload drift (old samples age out of the window).
"""

from __future__ import annotations

from repro.errors import ConfigError

#: Ring-buffer capacity: the quantile is computed over at most this many
#: most-recent sizes.
WINDOW = 512
#: Observations required before the first adaptation.
MIN_SAMPLES = 64
#: Recompute the quantile every this many observations (amortizes the
#: sort; adaptation cadence, not correctness, depends on it).
REFRESH = 64
#: Starting cutoff in bytes; the permanent cutoff of a disabled estimator
#: (the static-cutoff ablation arm of X4).
INITIAL_CUTOFF = 8192.0


class WindowedQuantileCutoff:
    """Size cutoff tracking a quantile of a sliding sample window.

    Parameters
    ----------
    quantile:
        The fraction of observed sizes routed small, e.g. 0.95 sends the
        largest ~5% of operations to the large lane.
    enabled:
        When False, :meth:`observe` only records window state and the
        cutoff stays at :data:`INITIAL_CUTOFF`.
    """

    def __init__(self, quantile: float = 0.97, enabled: bool = True):
        if not 0.0 < quantile < 1.0:
            raise ConfigError(f"quantile must be in (0, 1), got {quantile}")
        self.quantile = quantile
        self.enabled = enabled
        self.cutoff = INITIAL_CUTOFF
        self.updates = 0
        self.observed = 0
        self._ring: list[float] = []
        self._next = 0  # ring-buffer write position once full

    def observe(self, size: float) -> None:
        """Record one size; periodically re-derive the cutoff."""
        if len(self._ring) < WINDOW:
            self._ring.append(float(size))
        else:
            self._ring[self._next] = float(size)
            self._next = (self._next + 1) % WINDOW
        self.observed += 1
        if (
            self.enabled
            and self.observed >= MIN_SAMPLES
            and self.observed % REFRESH == 0
        ):
            self._recompute()

    def _recompute(self) -> None:
        # Nearest-rank quantile over the window; a sorted copy keeps the
        # ring's age order intact.
        ordered = sorted(self._ring)
        idx = int(self.quantile * (len(ordered) - 1))
        self.cutoff = ordered[idx]
        self.updates += 1

    def is_small(self, size: float) -> bool:
        """Route decision: sizes at or below the cutoff go small."""
        return size <= self.cutoff

    def __repr__(self) -> str:
        return (
            f"WindowedQuantileCutoff(q={self.quantile}, cutoff={self.cutoff:.0f}, "
            f"updates={self.updates}, enabled={self.enabled})"
        )
