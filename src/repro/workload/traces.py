"""Trace recording and replay (JSON Lines + cache-trace CSV).

A trace is a sequence of request records — arrival time, keys, sizes, op
kinds — that can be written during one run and replayed exactly in
another (e.g. to compare schedulers on the *identical* arrival sequence,
eliminating workload variance from A/B comparisons).

Two on-disk formats are supported (see ``docs/workloads.md`` for the
full column contract):

* **JSONL** (:func:`write_trace` / :func:`read_trace`) — this
  repository's native multiget format, one request object per line.
* **Cache-trace CSV** (:func:`read_csv_trace`) — the
  ``timestamp,key,op,size`` shape real KV-cache traces ship in
  (Twitter/Meta style, one *operation* per line).  Ingest converts each
  line into a single-key :class:`TraceRecord`; :func:`rescale_trace`
  and :func:`remap_keys` then deterministically fit the trace onto a
  simulated cluster's clock and keyspace.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

from repro.errors import TraceFormatError

_REQUIRED_FIELDS = ("t", "keys", "sizes")


@dataclass
class TraceRecord:
    """One request in a trace."""

    t: float
    keys: List[str]
    sizes: List[int]
    is_put: List[bool] = field(default_factory=list)

    def __post_init__(self):
        if self.t < 0:
            raise TraceFormatError(f"negative arrival time {self.t}")
        if len(self.keys) != len(self.sizes):
            raise TraceFormatError(
                f"keys/sizes length mismatch: {len(self.keys)} vs {len(self.sizes)}"
            )
        if not self.keys:
            raise TraceFormatError("empty request in trace")
        if self.is_put and len(self.is_put) != len(self.keys):
            raise TraceFormatError("is_put length mismatch")
        if not self.is_put:
            self.is_put = [False] * len(self.keys)

    def to_json(self) -> str:
        record = {"t": self.t, "keys": self.keys, "sizes": self.sizes}
        if any(self.is_put):
            record["is_put"] = self.is_put
        return json.dumps(record, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str, lineno: int = 0) -> "TraceRecord":
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"line {lineno}: invalid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise TraceFormatError(f"line {lineno}: record must be an object")
        for name in _REQUIRED_FIELDS:
            if name not in raw:
                raise TraceFormatError(f"line {lineno}: missing field {name!r}")
        try:
            return cls(
                t=float(raw["t"]),
                keys=[str(k) for k in raw["keys"]],
                sizes=[int(s) for s in raw["sizes"]],
                is_put=[bool(p) for p in raw.get("is_put", [])],
            )
        except (TypeError, ValueError) as exc:
            raise TraceFormatError(f"line {lineno}: bad field value: {exc}") from exc


def write_trace(path: Union[str, Path], records: Iterable[TraceRecord]) -> int:
    """Write records to ``path`` in JSONL; returns the record count."""
    path = Path(path)
    count = 0
    previous_t = -float("inf")
    with path.open("w", encoding="utf-8") as fh:
        for record in records:
            if record.t < previous_t:
                raise TraceFormatError(
                    f"records out of order: {record.t} after {previous_t}"
                )
            previous_t = record.t
            fh.write(record.to_json())
            fh.write("\n")
            count += 1
    return count


def read_trace(path: Union[str, Path]) -> Iterator[TraceRecord]:
    """Lazily read records from a JSONL trace file."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        previous_t = -float("inf")
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            record = TraceRecord.from_json(line, lineno)
            if record.t < previous_t:
                raise TraceFormatError(
                    f"line {lineno}: arrival times must be non-decreasing"
                )
            previous_t = record.t
            yield record


def load_trace(path: Union[str, Path]) -> List[TraceRecord]:
    """Read an entire trace into memory."""
    return list(read_trace(path))


# ----------------------------------------------------------------------
# Cache-trace CSV ingest (Twitter/Meta-style ``timestamp,key,op,size``)
# ----------------------------------------------------------------------
#: Column order of the supported cache-trace CSV format.
CSV_COLUMNS = ("timestamp", "key", "op", "size")

#: Operation-name normalization: every alias a real cache trace uses for
#: a read or a write, mapped onto the boolean ``is_put`` flag.
_GET_OPS = frozenset({"get", "gets", "read", "lookup"})
_PUT_OPS = frozenset({"put", "set", "write", "add", "replace", "update", "cas"})


def read_csv_trace(
    path: Union[str, Path],
    limit: Optional[int] = None,
) -> List[TraceRecord]:
    """Ingest a ``timestamp,key,op,size`` cache-trace CSV.

    One line = one operation = one single-key :class:`TraceRecord`
    (real cache traces are per-op; multiget structure is a property of
    synthetic workloads).  Rules, each enforced with the offending line
    number in the error:

    * an optional header line (detected by a non-numeric first field)
      is skipped; blank lines and ``#`` comments are ignored;
    * every data line needs at least the four columns — extra trailing
      columns (TTL, client id, ...) are ignored;
    * timestamps must be non-negative and **non-decreasing** (a
      non-monotone line raises :class:`TraceFormatError` instead of
      silently producing negative inter-arrival gaps on replay);
    * ``op`` must be a known read/write alias (``get``/``gets``/
      ``read``/``lookup`` vs ``put``/``set``/``write``/``add``/
      ``replace``/``update``/``cas``, case-insensitive);
    * ``size`` must be a non-negative integer.

    ``limit`` caps the number of ingested records (for downsampled
    smoke runs).  Timestamps are kept verbatim — apply
    :func:`rescale_trace` to fit the trace onto a target duration.
    """
    path = Path(path)
    records: List[TraceRecord] = []
    previous_t = -float("inf")
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = [part.strip() for part in line.split(",")]
            if len(fields) < len(CSV_COLUMNS):
                raise TraceFormatError(
                    f"line {lineno}: expected {len(CSV_COLUMNS)} columns "
                    f"({','.join(CSV_COLUMNS)}), got {len(fields)}"
                )
            if lineno == 1 and records == []:
                # Header detection: a first line whose timestamp field is
                # not a number is a header, not data.
                try:
                    float(fields[0])
                except ValueError:
                    continue
            try:
                t = float(fields[0])
            except ValueError:
                raise TraceFormatError(
                    f"line {lineno}: bad timestamp {fields[0]!r}"
                ) from None
            if t < 0:
                raise TraceFormatError(f"line {lineno}: negative timestamp {t}")
            if t < previous_t:
                raise TraceFormatError(
                    f"line {lineno}: timestamps must be non-decreasing "
                    f"({t} after {previous_t})"
                )
            previous_t = t
            key = fields[1]
            if not key:
                raise TraceFormatError(f"line {lineno}: empty key")
            op = fields[2].lower()
            if op in _GET_OPS:
                is_put = False
            elif op in _PUT_OPS:
                is_put = True
            else:
                known = ", ".join(sorted(_GET_OPS | _PUT_OPS))
                raise TraceFormatError(
                    f"line {lineno}: unknown op {fields[2]!r}; known: {known}"
                )
            try:
                size = int(fields[3])
            except ValueError:
                raise TraceFormatError(
                    f"line {lineno}: bad size {fields[3]!r}"
                ) from None
            if size < 0:
                raise TraceFormatError(f"line {lineno}: negative size {size}")
            records.append(
                TraceRecord(t=t, keys=[key], sizes=[size], is_put=[is_put])
            )
            if limit is not None and len(records) >= limit:
                break
    if not records:
        raise TraceFormatError(f"{path.name}: trace has no records")
    return records


def rescale_trace(
    records: Sequence[TraceRecord],
    duration: Optional[float] = None,
    rate: Optional[float] = None,
) -> List[TraceRecord]:
    """Deterministically rescale a trace's clock onto a simulation's.

    The first arrival is shifted to ``t = 0`` and all inter-arrival gaps
    are multiplied by one constant factor so that either the whole trace
    spans ``duration`` seconds, or the mean request rate equals ``rate``
    (set exactly one; a single-record trace only shifts).  Rescaling
    never reorders records and never touches keys, sizes, or op kinds —
    the replayed *sequence* is the real trace, only its clock is fitted.
    """
    if (duration is None) == (rate is None):
        raise TraceFormatError("set exactly one of duration / rate")
    if duration is not None and duration <= 0:
        raise TraceFormatError("duration must be positive")
    if rate is not None and rate <= 0:
        raise TraceFormatError("rate must be positive")
    if not records:
        raise TraceFormatError("cannot rescale an empty trace")
    t0 = records[0].t
    span = records[-1].t - t0
    if span <= 0:
        factor = 1.0  # all arrivals coincide: only the shift applies
    elif duration is not None:
        factor = duration / span
    else:
        factor = ((len(records) - 1) / span) / rate
    return [
        TraceRecord(
            t=(record.t - t0) * factor,
            keys=list(record.keys),
            sizes=list(record.sizes),
            is_put=list(record.is_put),
        )
        for record in records
    ]


def remap_keys(
    records: Sequence[TraceRecord],
    keyspace_size: int,
    prefix: str = "key:",
) -> List[TraceRecord]:
    """Deterministically remap trace keys onto a simulated keyspace.

    Distinct keys are numbered in first-appearance order and wrapped
    modulo ``keyspace_size`` onto the simulator's canonical key names
    (``f"{prefix}{index:010d}"`` — the names :class:`Keyspace`
    holds), which the simulated cluster requires of every trace key.
    Each record keeps its own sizes: a replayed op serves the size its
    trace line names, whatever key it lands on.  The mapping is
    a pure function of the record sequence: two ingests of the same
    file produce the same mapping.  Aliasing (more distinct trace keys
    than ``keyspace_size``) folds the coldest tail onto existing
    indices, preserving the head of the popularity distribution.
    """
    if keyspace_size < 1:
        raise TraceFormatError("keyspace_size must be >= 1")
    mapping: Dict[str, str] = {}
    remapped: List[TraceRecord] = []
    for record in records:
        keys = []
        for key in record.keys:
            name = mapping.get(key)
            if name is None:
                name = f"{prefix}{len(mapping) % keyspace_size:010d}"
                mapping[key] = name
            keys.append(name)
        remapped.append(
            TraceRecord(
                t=record.t,
                keys=keys,
                sizes=list(record.sizes),
                is_put=list(record.is_put),
            )
        )
    return remapped


@dataclass(frozen=True)
class TraceInfo:
    """Summary statistics of a trace (see :func:`trace_info`)."""

    records: int
    ops: int
    duration: float
    mean_rate: float
    distinct_keys: int
    put_fraction: float
    size_min: int
    size_mean: float
    size_max: int

    def describe(self) -> str:
        """One-paragraph human-readable summary (used by docs/CLI)."""
        return (
            f"{self.records} records / {self.ops} ops over "
            f"{self.duration:.3f}s ({self.mean_rate:.1f} req/s), "
            f"{self.distinct_keys} distinct keys, "
            f"{self.put_fraction * 100:.1f}% puts, "
            f"sizes {self.size_min}B..{self.size_max}B "
            f"(mean {self.size_mean:.0f}B)"
        )


def trace_info(records: Sequence[TraceRecord]) -> TraceInfo:
    """Summarize a trace: counts, span, key cardinality, size profile.

    The walkthrough in ``docs/workloads.md`` uses this to sanity-check
    an ingested trace before replaying it (does the span, rate, and
    size profile look like the source system?).
    """
    if not records:
        raise TraceFormatError("cannot summarize an empty trace")
    ops = sum(len(r.keys) for r in records)
    keys = set()
    puts = 0
    size_min = None
    size_max = None
    size_sum = 0
    for record in records:
        keys.update(record.keys)
        puts += sum(record.is_put)
        for size in record.sizes:
            size_sum += size
            size_min = size if size_min is None else min(size_min, size)
            size_max = size if size_max is None else max(size_max, size)
    duration = records[-1].t - records[0].t
    mean_rate = (len(records) - 1) / duration if duration > 0 else float("inf")
    return TraceInfo(
        records=len(records),
        ops=ops,
        duration=duration,
        mean_rate=mean_rate,
        distinct_keys=len(keys),
        put_fraction=puts / ops,
        size_min=int(size_min),
        size_mean=size_sum / ops,
        size_max=int(size_max),
    )
