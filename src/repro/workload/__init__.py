"""Workload generation: arrivals, key popularity, fan-out, value sizes.

Every distribution is one small frozen dataclass that draws for itself
and exposes analytic moments like ``mean()``, so experiment
configurations are self-describing, serializable, and the offered load
can be computed in closed form for calibration:

* an arrival spec hands its client a gap function, ``gaps(stream)``;
* fan-out and size specs return int64 blocks, ``draw(stream, n)``;
* a popularity spec builds a keyspace-sized sampler,
  ``build(keyspace_size, rng, max_fanout)``, that answers
  ``sample_block(counts)``.

A named traffic mix is a bundled spec file (``specs/*.toml``), looked
up with :func:`workload`.
"""

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
    "RequestFactory",
    "RequestSpec",
    "SAMPLE_TRACE",
    "SizeSpec",
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
    "workload",
    "write_trace",
]
