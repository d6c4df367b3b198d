"""Counter/gauge/histogram registry with Prometheus + JSON export.

Design goals, in order:

1. **Hot-path cost is one attribute bump.**  ``Counter.inc`` adds to a
   float; ``Gauge.set`` assigns one.  No locks, no label hashing per
   update — the label resolution happens once, at registration time.
2. **Truth over copies.**  Gauges can be *callback-backed* (``fn=``), so
   an export reads the live value straight from the owning object (a
   queue's ``front_length``, a set of writers' ``len``) instead of a
   snapshot someone forgot to refresh.  This is what lets tests assert
   "the exported gauge equals queue-internal truth".
3. **Two export surfaces.**  :meth:`MetricsRegistry.snapshot` returns a
   JSON-able dict; :meth:`MetricsRegistry.to_prometheus` renders the
   text exposition format (counters/gauges/summaries) so any scraper or
   human can read a dump.

Naming scheme (documented in ``docs/architecture.md``): metric names are
``snake_case`` with a subsystem prefix (``das_``, ``executor_``,
``server_``, ``client_``); monotonically increasing values end in
``_total``; labels identify the entity (``server="3"``).
"""

from __future__ import annotations

import math
from math import frexp
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.errors import ConfigError

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(key: LabelKey, extra: Optional[Dict[str, str]] = None) -> str:
    items = list(key)
    if extra:
        items = sorted(items + [(str(k), str(v)) for k, v in extra.items()])
    if not items:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in items)
    return "{" + inner + "}"


class Counter:
    """Monotonically increasing count; ``inc`` is a plain attribute bump."""

    __slots__ = ("name", "help", "label_key", "value")

    kind = "counter"

    def __init__(self, name: str, help: str = "", labels: Optional[Dict[str, str]] = None):
        self.name = name
        self.help = help
        self.label_key = _label_key(labels or {})
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigError("counters only go up")
        self.value += amount

    def get(self) -> float:
        return self.value


class Gauge:
    """Point-in-time value; either set explicitly or callback-backed."""

    __slots__ = ("name", "help", "label_key", "_value", "fn")

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Optional[Dict[str, str]] = None,
        fn: Optional[Callable[[], float]] = None,
    ):
        self.name = name
        self.help = help
        self.label_key = _label_key(labels or {})
        self._value: float = 0.0
        self.fn = fn

    def set(self, value: float) -> None:
        if self.fn is not None:
            raise ConfigError(f"gauge {self.name} is callback-backed")
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if self.fn is not None:
            raise ConfigError(f"gauge {self.name} is callback-backed")
        self._value += amount

    def get(self) -> float:
        if self.fn is not None:
            return float(self.fn())
        return self._value


#: Log-bucket resolution: sub-buckets per power of two.  A bucket is at
#: most 1/8 wider than its lower bound, so a quantile read from the
#: buckets is within ~6% of the sample it stands for.
SUB_BUCKETS_PER_OCTAVE = 8


class Histogram:
    """Streaming distribution: count/sum/min/max plus log-spaced bucket counts.

    ``observe`` costs one bucket increment; quantiles are worked out from
    the buckets when read, so the per-sample path carries no estimator.
    Memory is bounded by the dynamic range of the samples
    (:data:`SUB_BUCKETS_PER_OCTAVE` sparse buckets per factor of two),
    not by their number.
    """

    __slots__ = (
        "name", "help", "label_key", "count", "sum", "min", "max",
        "quantiles", "_buckets", "_nonpositive",
    )

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Optional[Dict[str, str]] = None,
        quantiles: Iterable[float] = (0.5, 0.9, 0.99),
    ):
        self.name = name
        self.help = help
        self.label_key = _label_key(labels or {})
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        #: The quantiles :meth:`summary` and the exposition report.
        self.quantiles = tuple(quantiles)
        for q in self.quantiles:
            if not 0 < q < 1:
                raise ConfigError(f"quantile must be in (0, 1), got {q}")
        #: bucket index -> samples in it, for positive samples.
        self._buckets: Dict[int, int] = {}
        self._nonpositive = 0

    def observe(self, x: float) -> None:
        self.count += 1
        self.sum += x
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x
        if x > 0.0:
            # x = mantissa * 2**exponent with mantissa in [0.5, 1): the
            # bucket is the octave and the mantissa's top bits.
            mantissa, exponent = frexp(x)
            index = (exponent - 1) * SUB_BUCKETS_PER_OCTAVE + int(
                mantissa * (2 * SUB_BUCKETS_PER_OCTAVE)
            )
            try:
                self._buckets[index] += 1
            except KeyError:
                self._buckets[index] = 1
        else:
            self._nonpositive += 1

    def quantile(self, q: float) -> float:
        """The ``q``-quantile, interpolated within the bucket that holds it."""
        if self.count == 0:
            return float("nan")
        rank = q * (self.count - 1)
        seen = self._nonpositive
        if rank < seen:
            # Between the smallest sample and zero.
            return min(self.min, 0.0) * (1.0 - rank / seen)
        for index in sorted(self._buckets):
            in_bucket = self._buckets[index]
            if rank < seen + in_bucket:
                octave, sub = divmod(index, SUB_BUCKETS_PER_OCTAVE)
                width = math.ldexp(1.0 / (2 * SUB_BUCKETS_PER_OCTAVE), octave)
                low = (SUB_BUCKETS_PER_OCTAVE + sub) * width
                value = low + width * (rank - seen) / in_bucket
                return min(max(value, self.min), self.max)
            seen += in_bucket
        return self.max

    def summary(self) -> Dict[str, float]:
        out: Dict[str, float] = {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else float("nan"),
            "max": self.max if self.count else float("nan"),
        }
        for q in self.quantiles:
            out[f"p{q * 100:g}"] = self.quantile(q)
        return out


class MetricsRegistry:
    """Get-or-create registry of named, labelled instruments.

    Instruments are identified by ``(name, labels)``; asking twice returns
    the same object, so a restarted component keeps counting into the
    same series (a server's lifetime view survives executor restarts).
    """

    def __init__(self):
        self._metrics: Dict[Tuple[str, LabelKey], object] = {}

    # -- registration ---------------------------------------------------
    def _get_or_create(self, cls, name: str, help: str, labels: Dict[str, str], **kwargs):
        key = (name, _label_key(labels))
        existing = self._metrics.get(key)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ConfigError(
                    f"metric {name!r} already registered as {type(existing).__name__}"
                )
            return existing
        metric = cls(name, help=help, labels=labels, **kwargs)
        self._metrics[key] = metric
        return metric

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(
        self,
        name: str,
        help: str = "",
        fn: Optional[Callable[[], float]] = None,
        **labels: str,
    ) -> Gauge:
        gauge = self._get_or_create(Gauge, name, help, labels, fn=fn)
        if fn is not None:
            # Re-registration after a component restart rebinds the
            # callback to the live object (the old one is gone).
            gauge.fn = fn
        return gauge

    def histogram(
        self,
        name: str,
        help: str = "",
        quantiles: Iterable[float] = (0.5, 0.9, 0.99),
        **labels: str,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels, quantiles=quantiles)

    # -- lookup ---------------------------------------------------------
    def get(self, name: str, **labels: str):
        """The instrument registered under ``(name, labels)``, or None."""
        return self._metrics.get((name, _label_key(labels)))

    def value(self, name: str, **labels: str) -> float:
        """Current numeric value of a counter or gauge (for tests)."""
        metric = self.get(name, **labels)
        if metric is None:
            raise ConfigError(f"no metric {name!r} with labels {labels!r}")
        if isinstance(metric, Histogram):
            raise ConfigError(f"{name!r} is a histogram; use .summary()")
        return metric.get()

    def __iter__(self):
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    # -- export ---------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-able snapshot: ``{counters: {...}, gauges: {...}, histograms: {...}}``.

        Keys are ``name`` or ``name{label="v",...}``; callback gauges are
        evaluated at snapshot time, so the numbers are live truth.
        """
        out: Dict[str, Dict[str, object]] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        for (name, key), metric in sorted(self._metrics.items()):
            rendered = name + _render_labels(key)
            if isinstance(metric, Counter):
                out["counters"][rendered] = metric.get()
            elif isinstance(metric, Gauge):
                out["gauges"][rendered] = metric.get()
            else:
                out["histograms"][rendered] = metric.summary()
        return out

    def to_prometheus(self, extra_labels: Optional[Dict[str, str]] = None) -> str:
        """Prometheus text exposition of every registered instrument.

        ``extra_labels`` are appended to every sample — used by the
        experiment runner to distinguish per-cell registries in one file.
        """
        by_name: Dict[str, list] = {}
        for (name, _), metric in sorted(self._metrics.items()):
            by_name.setdefault(name, []).append(metric)
        lines = []
        for name, metrics in by_name.items():
            first = metrics[0]
            if first.help:
                lines.append(f"# HELP {name} {first.help}")
            ptype = "summary" if isinstance(first, Histogram) else first.kind
            lines.append(f"# TYPE {name} {ptype}")
            for metric in metrics:
                if isinstance(metric, Histogram):
                    for q in metric.quantiles:
                        labels = _render_labels(
                            metric.label_key,
                            dict(extra_labels or {}, quantile=f"{q:g}"),
                        )
                        lines.append(f"{name}{labels} {metric.quantile(q)}")
                    suffix = _render_labels(metric.label_key, extra_labels)
                    lines.append(f"{name}_count{suffix} {metric.count}")
                    lines.append(f"{name}_sum{suffix} {metric.sum}")
                else:
                    labels = _render_labels(metric.label_key, extra_labels)
                    lines.append(f"{name}{labels} {metric.get()}")
        return "\n".join(lines) + "\n" if lines else ""
