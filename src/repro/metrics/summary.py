"""Summary statistics of a latency sample."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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

