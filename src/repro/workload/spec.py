"""Declarative workload specs: JSON/TOML descriptors for full workloads.

A :class:`WorkloadSpec` bundles everything that defines *what traffic a
cluster sees* — arrival pattern (including phases and bursts), key
popularity, value-size model, multiget fan-out, put ratio, and open- vs
closed-loop generation mode — into one validated, serializable object
that builds the existing ``workload/`` generator specs.  Specs load from
TOML or JSON files (``load_spec``), live in the bundled registry
(:mod:`repro.workload.registry`), and plug into the simulator via
``ClusterConfig(workload="name")`` and into the experiment CLIs via
``--workload``.  The file format is documented field-by-field in
``docs/workloads.md`` — that page is the contract; this module enforces
it.

Two load models:

* **absolute** — the ``[arrivals]`` table states rates in requests/s and
  the spec replays identically on any cluster;
* **calibrated** — a top-level ``load`` (target utilization in (0, 1])
  rescales the declared arrival shape so its *time-average* rate hits
  that utilization on the cluster at hand (via
  :func:`repro.workload.requests.arrival_rate_for_load`), which keeps
  one spec meaningful across cluster sizes.  The shape (MMPP rate
  ratios, phase ramps) is preserved; only the overall level moves.

A spec may instead declare a ``[trace]`` table: replay a recorded trace
(cache-trace CSV or JSONL) as the arrival+key+size source, with
deterministic time-rescaling and keyspace remapping.  A trace spec
ignores the synthetic generator tables.

Python 3.10 note: the stdlib gained ``tomllib`` in 3.11.  On 3.10 this
module falls back to a minimal built-in parser covering the TOML subset
the spec format uses (tables, scalar keys, single- or multi-line arrays)
so no third-party dependency is needed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.errors import WorkloadError
from repro.workload.arrivals import (
    ArrivalSpec,
    DeterministicArrivals,
    MMPPArrivals,
    PhasedArrivals,
    PoissonArrivals,
)
from repro.workload.fanout import (
    BimodalFanout,
    FanoutSpec,
    FixedFanout,
    GeometricFanout,
    UniformFanout,
)
from repro.workload.popularity import (
    HotspotPopularity,
    PopularitySpec,
    UniformPopularity,
    ZipfPopularity,
)
from repro.workload.requests import arrival_rate_for_load
from repro.workload.sizes import (
    BimodalSize,
    ExponentialSize,
    FixedSize,
    LognormalSize,
    ParetoSize,
    SizeSpec,
    UniformSize,
)

try:  # Python >= 3.11
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - exercised on 3.10 CI only
    tomllib = None


# ----------------------------------------------------------------------
# Component registries: spec-file "kind" string -> generator class.
# docs/workloads.md tables these kinds and their parameters.
# ----------------------------------------------------------------------
ARRIVAL_KINDS: Dict[str, type] = {
    "poisson": PoissonArrivals,
    "deterministic": DeterministicArrivals,
    "mmpp": MMPPArrivals,
    "phased": PhasedArrivals,
}

FANOUT_KINDS: Dict[str, type] = {
    "fixed": FixedFanout,
    "uniform": UniformFanout,
    "geometric": GeometricFanout,
    "bimodal": BimodalFanout,
}

SIZE_KINDS: Dict[str, type] = {
    "fixed": FixedSize,
    "uniform": UniformSize,
    "lognormal": LognormalSize,
    "pareto": ParetoSize,
    "bimodal": BimodalSize,
    "exponential": ExponentialSize,
}

POPULARITY_KINDS: Dict[str, type] = {
    "uniform": UniformPopularity,
    "zipf": ZipfPopularity,
    "hotspot": HotspotPopularity,
}

_KIND_TABLES = {
    "arrivals": ARRIVAL_KINDS,
    "fanout": FANOUT_KINDS,
    "sizes": SIZE_KINDS,
    "popularity": POPULARITY_KINDS,
}

#: Top-level keys a spec file may contain (everything else is an error —
#: typos must not silently fall back to defaults).
_TOP_LEVEL_KEYS = frozenset(
    {
        "name",
        "description",
        "mode",
        "closed_concurrency",
        "load",
        "put_fraction",
        "keyspace_size",
        "tenants",
        "arrivals",
        "fanout",
        "sizes",
        "popularity",
        "trace",
    }
)

_TRACE_KEYS = frozenset(
    {"path", "format", "limit", "duration", "rate", "remap"}
)


def _typed(value: Any, annotation: str) -> Any:
    """``value`` as a field annotated ``annotation`` takes it.

    ``int`` takes an integer, ``float`` any number (as a float), and
    ``Tuple[X, ...]`` an array of ``X``; a bool is never a number.
    Raises ``TypeError`` for anything else.
    """
    if annotation.startswith("Tuple["):
        if isinstance(value, (list, tuple)):
            inner = annotation[len("Tuple[") : annotation.rindex(",")]
            return tuple(_typed(v, inner) for v in value)
    elif not isinstance(value, bool):
        if annotation == "int" and isinstance(value, int):
            return value
        if annotation == "float" and isinstance(value, (int, float)):
            return float(value)
    raise TypeError(annotation)


def _build_component(name: str, section_key: str, section: Any) -> Any:
    """Build one generator spec from a ``{"kind": ..., params...}`` table."""
    kinds = _KIND_TABLES[section_key]
    if not isinstance(section, dict):
        raise WorkloadError(
            f"spec {name!r}: {section_key} must be a table, got "
            f"{type(section).__name__}"
        )
    data = dict(section)
    kind = data.pop("kind", None)
    if kind is None:
        raise WorkloadError(f"spec {name!r}: {section_key}.kind is required")
    cls = kinds.get(kind)
    if cls is None:
        raise WorkloadError(
            f"spec {name!r}: unknown {section_key}.kind {kind!r}; "
            f"known: {', '.join(sorted(kinds))}"
        )
    allowed = {f.name: f.type for f in fields(cls)}
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise WorkloadError(
            f"spec {name!r}: unknown {section_key} parameter(s) "
            f"{', '.join(unknown)} for kind {kind!r}; "
            f"known: {', '.join(sorted(allowed))}"
        )
    for key, value in data.items():
        try:
            data[key] = _typed(value, allowed[key])
        except TypeError:
            raise WorkloadError(
                f"spec {name!r}: {section_key} ({kind}) parameter {key} must "
                f"be {allowed[key]}, got {value!r}"
            ) from None
    try:
        return cls(**data)
    except WorkloadError as exc:
        raise WorkloadError(
            f"spec {name!r}: invalid {section_key} ({kind}): {exc}"
        ) from exc


def _component_dict(component: Any, kinds: Dict[str, type]) -> Dict[str, Any]:
    """Serialize a generator spec back to its ``{"kind": ...}`` table."""
    kind = next(k for k, cls in kinds.items() if type(component) is cls)
    table: Dict[str, Any] = {"kind": kind}
    for f in fields(component):
        value = getattr(component, f.name)
        if isinstance(value, tuple):
            value = [list(v) if isinstance(v, tuple) else v for v in value]
        table[f.name] = value
    return table


@dataclass(frozen=True)
class TraceSource:
    """Where and how a trace spec gets its records.

    ``path`` is resolved relative to the spec file at load time (the
    resolved directory lands in ``base_dir``, which never enters the
    fingerprint — the *records* do, via the cluster config).  Exactly
    one of ``duration`` / ``rate`` may rescale the trace clock; with
    neither, timestamps replay verbatim.  ``remap=True`` (default) maps
    trace keys onto the simulator's keyspace.
    """

    path: str
    format: str = "csv"
    limit: Optional[int] = None
    duration: Optional[float] = None
    rate: Optional[float] = None
    remap: bool = True
    base_dir: Optional[str] = None

    def __post_init__(self):
        if not self.path:
            raise WorkloadError("trace.path is required")
        if self.format not in ("csv", "jsonl"):
            raise WorkloadError(
                f"trace.format must be 'csv' or 'jsonl', got {self.format!r}"
            )
        if self.limit is not None and self.limit < 1:
            raise WorkloadError("trace.limit must be >= 1")
        if self.duration is not None and self.rate is not None:
            raise WorkloadError("set at most one of trace.duration / trace.rate")
        if self.duration is not None and self.duration <= 0:
            raise WorkloadError("trace.duration must be positive")
        if self.rate is not None and self.rate <= 0:
            raise WorkloadError("trace.rate must be positive")

    def resolved_path(self) -> Path:
        """Trace path resolved against the spec file's directory."""
        path = Path(self.path)
        if not path.is_absolute() and self.base_dir is not None:
            path = Path(self.base_dir) / path
        return path

    def load_records(self, keyspace_size: Optional[int] = None) -> tuple:
        """Read, rescale, and remap the trace into replayable records."""
        from repro.workload.traces import (
            load_trace,
            read_csv_trace,
            remap_keys,
            rescale_trace,
        )

        path = self.resolved_path()
        if not path.exists():
            raise WorkloadError(f"trace file not found: {path}")
        if self.format == "csv":
            records = read_csv_trace(path, limit=self.limit)
        else:
            records = load_trace(path)
            if self.limit is not None:
                records = records[: self.limit]
        if self.duration is not None:
            records = rescale_trace(records, duration=self.duration)
        elif self.rate is not None:
            records = rescale_trace(records, rate=self.rate)
        if self.remap and keyspace_size is not None:
            records = remap_keys(records, keyspace_size)
        return tuple(records)


@dataclass(frozen=True)
class WorkloadSpec:
    """One complete, validated workload description.

    Defaults mirror :class:`repro.kvstore.config.ClusterConfig` so a
    minimal spec (just a ``name``) is the simulator's default workload.
    """

    name: str
    description: str = ""
    #: "open" (arrival-clock driven, the sim default) or "closed"
    #: (fixed window of outstanding requests per client).
    mode: str = "open"
    #: Outstanding requests per client in closed mode (ignored in open).
    closed_concurrency: int = 4
    #: Target utilization in (0, 1]; rescales the arrival shape per
    #: cluster.  None = use the declared absolute rates.
    load: Optional[float] = None
    put_fraction: float = 0.0
    #: Overrides the cluster's keyspace size when set.
    keyspace_size: Optional[int] = None
    #: Multi-tenant key spaces: the keyspace is split into this many
    #: disjoint per-tenant partitions and each client's popularity law is
    #: confined to its tenant's slice (tenant = client_id mod tenants).
    tenants: int = 1
    arrivals: ArrivalSpec = field(
        default_factory=lambda: PoissonArrivals(rate=1000.0)
    )
    fanout: FanoutSpec = field(
        default_factory=lambda: GeometricFanout(mean_target=5.0)
    )
    sizes: SizeSpec = field(
        default_factory=lambda: LognormalSize(median=1024.0, sigma=1.0, cap=1 << 18)
    )
    popularity: PopularitySpec = field(
        default_factory=lambda: ZipfPopularity(s=0.99)
    )
    #: Replay a recorded trace instead of the synthetic generators.
    trace: Optional[TraceSource] = None

    def __post_init__(self):
        if not self.name:
            raise WorkloadError("spec name is required")
        if self.mode not in ("open", "closed"):
            raise WorkloadError(
                f"spec {self.name!r}: mode must be 'open' or 'closed', "
                f"got {self.mode!r}"
            )
        if self.closed_concurrency < 1:
            raise WorkloadError(
                f"spec {self.name!r}: closed_concurrency must be >= 1"
            )
        if self.load is not None and not 0 < self.load <= 1:
            raise WorkloadError(
                f"spec {self.name!r}: load must be in (0, 1], got {self.load}"
            )
        if not 0.0 <= self.put_fraction <= 1.0:
            raise WorkloadError(
                f"spec {self.name!r}: put_fraction must be in [0, 1]"
            )
        if self.keyspace_size is not None and self.keyspace_size < 1:
            raise WorkloadError(
                f"spec {self.name!r}: keyspace_size must be >= 1"
            )
        if self.tenants < 1:
            raise WorkloadError(
                f"spec {self.name!r}: tenants must be >= 1, got {self.tenants}"
            )
        if self.trace is not None and self.load is not None:
            raise WorkloadError(
                f"spec {self.name!r}: trace replay and load calibration "
                "are mutually exclusive (the trace fixes the arrival rate)"
            )

    # ------------------------------------------------------------------
    # Parsing
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(
        cls,
        data: Dict[str, Any],
        base_dir: Optional[Union[str, Path]] = None,
    ) -> "WorkloadSpec":
        """Validate a parsed spec file into a :class:`WorkloadSpec`.

        Every malformed field raises :class:`WorkloadError` naming the
        field, so spec typos fail loudly instead of silently taking a
        default.
        """
        if not isinstance(data, dict):
            raise WorkloadError(
                f"spec must be a table/object, got {type(data).__name__}"
            )
        # JSON canonical form spells unset optionals as null; treat an
        # explicit null exactly like an absent key.
        data = {key: value for key, value in data.items() if value is not None}
        unknown = sorted(set(data) - _TOP_LEVEL_KEYS)
        if unknown:
            raise WorkloadError(
                f"unknown spec key(s): {', '.join(unknown)}; "
                f"known: {', '.join(sorted(_TOP_LEVEL_KEYS))}"
            )
        name = data.get("name")
        if not isinstance(name, str) or not name:
            raise WorkloadError("spec requires a non-empty string 'name'")
        kwargs: Dict[str, Any] = {"name": name}
        for key, typ in (
            ("description", str),
            ("mode", str),
            ("closed_concurrency", int),
            ("put_fraction", (int, float)),
            ("load", (int, float)),
            ("keyspace_size", int),
            ("tenants", int),
        ):
            if key in data:
                value = data[key]
                if isinstance(value, bool) or not isinstance(value, typ):
                    raise WorkloadError(
                        f"spec {name!r}: {key} has wrong type "
                        f"{type(value).__name__}"
                    )
                kwargs[key] = float(value) if key in ("put_fraction", "load") else value
        for section_key in ("arrivals", "fanout", "sizes", "popularity"):
            if section_key in data:
                kwargs[section_key] = _build_component(
                    name, section_key, data[section_key]
                )
        if "trace" in data:
            section = data["trace"]
            if not isinstance(section, dict):
                raise WorkloadError(f"spec {name!r}: trace must be a table")
            section = {k: v for k, v in section.items() if v is not None}
            unknown = sorted(set(section) - _TRACE_KEYS)
            if unknown:
                raise WorkloadError(
                    f"spec {name!r}: unknown trace key(s): {', '.join(unknown)}; "
                    f"known: {', '.join(sorted(_TRACE_KEYS))}"
                )
            try:
                kwargs["trace"] = TraceSource(
                    base_dir=str(base_dir) if base_dir is not None else None,
                    **section,
                )
            except WorkloadError as exc:
                raise WorkloadError(f"spec {name!r}: {exc}") from exc
        return cls(**kwargs)

    # ------------------------------------------------------------------
    # Canonical form + fingerprint
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """Canonical plain-data form (what TOML and JSON both parse to).

        Two spec files describing the same workload — regardless of
        format or key order — produce equal dicts; machine-local detail
        (the trace ``base_dir``) is excluded.
        """
        out: Dict[str, Any] = {
            "name": self.name,
            "description": self.description,
            "mode": self.mode,
            "closed_concurrency": self.closed_concurrency,
            "load": self.load,
            "put_fraction": self.put_fraction,
            "keyspace_size": self.keyspace_size,
            "tenants": self.tenants,
            "arrivals": _component_dict(self.arrivals, ARRIVAL_KINDS),
            "fanout": _component_dict(self.fanout, FANOUT_KINDS),
            "sizes": _component_dict(self.sizes, SIZE_KINDS),
            "popularity": _component_dict(self.popularity, POPULARITY_KINDS),
        }
        if self.trace is not None:
            out["trace"] = {
                "path": self.trace.path,
                "format": self.trace.format,
                "limit": self.trace.limit,
                "duration": self.trace.duration,
                "rate": self.trace.rate,
                "remap": self.trace.remap,
            }
        return out

    def fingerprint(self) -> str:
        """Stable content hash of the canonical form.

        Joins the cluster-config repr (see ``ClusterConfig.workload``),
        so parallel-engine checkpoints are invalidated whenever a named
        spec's *content* changes, not just its name.
        """
        payload = json.dumps(self.as_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def build_arrivals(
        self,
        n_servers: int,
        service: Any,
        mean_speed: float = 1.0,
    ) -> ArrivalSpec:
        """The arrival spec, load-calibrated for a concrete cluster.

        With ``load`` set, the declared shape is rescaled so its
        time-average rate yields that utilization given the cluster's
        capacity and this spec's fan-out and size moments; otherwise the
        declared spec is returned as-is.
        """
        if self.load is None:
            return self.arrivals
        target = arrival_rate_for_load(
            self.load,
            self.fanout.mean(),
            service.mean_demand(self.sizes.mean()),
            n_servers,
            mean_speed=mean_speed,
        )
        return self.arrivals.scaled(target / self.arrivals.mean_rate())

    def config_overrides(
        self,
        n_servers: int,
        service: Any,
        mean_speed: float = 1.0,
        default_keyspace: Optional[int] = None,
    ) -> Dict[str, Any]:
        """ClusterConfig field overrides realizing this spec.

        A workload spec fully owns the traffic definition: for a trace
        spec the synthetic generator fields keep their defaults and the
        replay records take over; for a synthetic spec any previously
        set ``trace`` is cleared.
        """
        keyspace = (
            self.keyspace_size
            if self.keyspace_size is not None
            else default_keyspace
        )
        overrides: Dict[str, Any] = {
            "fanout": self.fanout,
            "sizes": self.sizes,
            "popularity": self.popularity,
            "put_fraction": self.put_fraction,
            "closed_loop": self.mode == "closed",
            "closed_concurrency": self.closed_concurrency,
            "tenants": self.tenants,
        }
        if keyspace is not None:
            overrides["keyspace_size"] = keyspace
        if self.trace is not None:
            overrides["trace"] = self.trace.load_records(keyspace)
        else:
            overrides["trace"] = None
            overrides["arrivals"] = self.build_arrivals(
                n_servers, service, mean_speed
            )
        return overrides


# ----------------------------------------------------------------------
# File loading
# ----------------------------------------------------------------------
def load_spec(path: Union[str, Path]) -> WorkloadSpec:
    """Load and validate a workload spec from a ``.toml`` or ``.json`` file."""
    path = Path(path)
    if not path.exists():
        raise WorkloadError(f"workload spec file not found: {path}")
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".toml":
        data = _parse_toml(text, str(path))
    elif path.suffix == ".json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise WorkloadError(f"{path.name}: invalid JSON: {exc}") from exc
    else:
        raise WorkloadError(
            f"{path.name}: unsupported spec format {path.suffix!r} "
            "(use .toml or .json)"
        )
    return WorkloadSpec.from_dict(data, base_dir=path.parent)


def _parse_toml(text: str, origin: str) -> Dict[str, Any]:
    if tomllib is not None:
        try:
            return tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise WorkloadError(f"{origin}: invalid TOML: {exc}") from exc
    return _parse_toml_minimal(text, origin)


# ----------------------------------------------------------------------
# Minimal TOML-subset parser (Python 3.10 fallback; no tomllib, and the
# no-new-dependencies rule bars a third-party parser).  Covers exactly
# the subset docs/workloads.md's spec format uses: ``[table]`` headers,
# ``key = value`` with string/int/float/boolean values, and (possibly
# nested, possibly multi-line) arrays.
# ----------------------------------------------------------------------
def _strip_comment(line: str) -> str:
    in_string: Optional[str] = None
    for i, ch in enumerate(line):
        if in_string:
            if ch == in_string:
                in_string = None
        elif ch in "\"'":
            in_string = ch
        elif ch == "#":
            return line[:i]
    return line


def _split_top_level(body: str) -> list:
    parts, depth, current = [], 0, []
    for ch in body:
        if ch == "[":
            depth += 1
            current.append(ch)
        elif ch == "]":
            depth -= 1
            current.append(ch)
        elif ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


def _parse_scalar(token: str, origin: str, lineno: int) -> Any:
    token = token.strip()
    if len(token) >= 2 and token[0] == token[-1] and token[0] in "\"'":
        return token[1:-1]
    if token == "true":
        return True
    if token == "false":
        return False
    if token.startswith("["):
        if not token.endswith("]"):
            raise WorkloadError(f"{origin}:{lineno}: unterminated array")
        return [
            _parse_scalar(part, origin, lineno)
            for part in _split_top_level(token[1:-1])
        ]
    try:
        if any(c in token for c in ".eE") and not token.startswith("0x"):
            return float(token)
        return int(token)
    except ValueError:
        raise WorkloadError(
            f"{origin}:{lineno}: cannot parse value {token!r}"
        ) from None


def _parse_toml_minimal(text: str, origin: str) -> Dict[str, Any]:
    root: Dict[str, Any] = {}
    table = root
    pending_key: Optional[str] = None
    pending_value: list = []
    pending_line = 0

    def close_pending():
        nonlocal pending_key
        value = " ".join(pending_value).strip()
        table[pending_key] = _parse_scalar(value, origin, pending_line)
        pending_key = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if pending_key is not None:
            pending_value.append(line)
            joined = " ".join(pending_value)
            if joined.count("[") == joined.count("]"):
                close_pending()
            continue
        if line.startswith("[") and line.endswith("]"):
            header = line[1:-1].strip()
            if not header or "." in header or "[" in header:
                raise WorkloadError(
                    f"{origin}:{lineno}: unsupported table header {line!r} "
                    "(the 3.10 fallback parser supports single-level tables)"
                )
            table = root.setdefault(header, {})
            continue
        if "=" not in line:
            raise WorkloadError(f"{origin}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().strip('"').strip("'")
        value = value.strip()
        if value.count("[") != value.count("]"):
            pending_key, pending_value, pending_line = key, [value], lineno
            continue
        table[key] = _parse_scalar(value, origin, lineno)
    if pending_key is not None:
        raise WorkloadError(f"{origin}:{pending_line}: unterminated array")
    return root
