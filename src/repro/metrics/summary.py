"""Summary statistics with confidence intervals."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.errors import ConfigError


@dataclass(frozen=True)
class SummaryStats:
    """Distributional summary of a latency sample."""

    count: int
    mean: float
    std: float
    p50: float
    p90: float
    p95: float
    p99: float
    p999: float
    minimum: float
    maximum: float

    def as_dict(self) -> dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "p50": self.p50,
            "p90": self.p90,
            "p95": self.p95,
            "p99": self.p99,
            "p999": self.p999,
            "min": self.minimum,
            "max": self.maximum,
        }

    def __str__(self) -> str:
        return (
            f"n={self.count} mean={self.mean * 1e3:.3f}ms "
            f"p50={self.p50 * 1e3:.3f}ms p99={self.p99 * 1e3:.3f}ms"
        )


def summarize(samples: Sequence[float]) -> SummaryStats:
    """Compute a :class:`SummaryStats` from raw samples."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        raise ConfigError("cannot summarize zero samples")
    p50, p90, p95, p99, p999 = np.percentile(arr, [50, 90, 95, 99, 99.9])
    return SummaryStats(
        count=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        p50=float(p50),
        p90=float(p90),
        p95=float(p95),
        p99=float(p99),
        p999=float(p999),
        minimum=float(arr.min()),
        maximum=float(arr.max()),
    )


def mean_confidence_interval(
    samples: Sequence[float], confidence: float = 0.95
) -> Tuple[float, float, float]:
    """(mean, lower, upper) Student-t confidence interval for the mean."""
    if not 0 < confidence < 1:
        raise ConfigError("confidence must be in (0, 1)")
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size < 2:
        raise ConfigError("need at least two samples for a confidence interval")
    # scipy.stats is 0.7 s of import; only these two helpers need it.
    from scipy import stats

    mean = float(arr.mean())
    sem = float(stats.sem(arr))
    half = sem * float(stats.t.ppf((1 + confidence) / 2.0, arr.size - 1))
    return mean, mean - half, mean + half


def compare_means(
    baseline: Sequence[float], treatment: Sequence[float]
) -> dict[str, float]:
    """Reduction of the treatment mean vs the baseline mean, with a t-test.

    Returns ``reduction`` as a fraction (0.25 = 25% lower mean than the
    baseline — the headline metric the paper reports), plus Welch-t ``p``.
    """
    base = np.asarray(baseline, dtype=np.float64)
    treat = np.asarray(treatment, dtype=np.float64)
    if base.size == 0 or treat.size == 0:
        raise ConfigError("both samples must be non-empty")
    reduction = 1.0 - treat.mean() / base.mean()
    if base.size > 1 and treat.size > 1:
        from scipy import stats

        _, p_value = stats.ttest_ind(base, treat, equal_var=False)
    else:
        p_value = float("nan")
    return {
        "baseline_mean": float(base.mean()),
        "treatment_mean": float(treat.mean()),
        "reduction": float(reduction),
        "p_value": float(p_value),
    }
