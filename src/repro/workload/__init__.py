"""Workload generation: arrivals, key popularity, fan-out, value sizes.

Every generator is described by a declarative *spec* (a small frozen
dataclass exposing ``build(rng)`` and analytic moments like ``mean()``)
so experiment configurations are self-describing, serializable, and the
offered load can be computed in closed form for calibration.
"""

from repro.workload.arrivals import (
    ArrivalSpec,
    DeterministicArrivals,
    MMPPArrivals,
    PhasedArrivals,
    PoissonArrivals,
    SinusoidalArrivals,
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
from repro.workload.requests import Keyspace, RequestFactory, RequestSpec
from repro.workload.sizes import (
    BimodalSize,
    ExponentialSize,
    FixedSize,
    LognormalSize,
    ParetoSize,
    SizeSpec,
    UniformSize,
)
from repro.workload.traces import (
    TraceInfo,
    TraceRecord,
    read_csv_trace,
    read_trace,
    remap_keys,
    rescale_trace,
    trace_info,
    write_trace,
)
from repro.workload.patterns import TRAFFIC_PATTERNS, traffic_pattern
from repro.workload.spec import WorkloadSpec, load_spec
from repro.workload.registry import (
    BUNDLED_SPECS_DIR,
    SAMPLE_TRACE,
    list_workloads,
    workload,
)

__all__ = [
    "ArrivalSpec",
    "BUNDLED_SPECS_DIR",
    "BimodalFanout",
    "BimodalSize",
    "DeterministicArrivals",
    "ExponentialSize",
    "FanoutSpec",
    "FixedFanout",
    "FixedSize",
    "GeometricFanout",
    "HotspotPopularity",
    "Keyspace",
    "LognormalSize",
    "MMPPArrivals",
    "ParetoSize",
    "PhasedArrivals",
    "PoissonArrivals",
    "PopularitySpec",
    "SinusoidalArrivals",
    "RequestFactory",
    "RequestSpec",
    "SAMPLE_TRACE",
    "SizeSpec",
    "TRAFFIC_PATTERNS",
    "TraceInfo",
    "TraceRecord",
    "UniformFanout",
    "UniformPopularity",
    "UniformSize",
    "WorkloadSpec",
    "ZipfPopularity",
    "list_workloads",
    "load_spec",
    "read_csv_trace",
    "read_trace",
    "remap_keys",
    "rescale_trace",
    "trace_info",
    "traffic_pattern",
    "workload",
    "write_trace",
]
