"""Request factory: combines arrivals, fan-out, popularity, and sizes.

The :class:`Keyspace` fixes key names and their value sizes once per
experiment (sizes are a property of the *data*, not of each access).  A
:class:`RequestFactory` hands out each request's key indices and put
flags, drawn :data:`REQUEST_BLOCK` requests at a time; the simulated
client resolves indices against its cluster's key table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import TraceFormatError, WorkloadError
from repro.sim.rand import as_batched
from repro.workload.arrivals import ArrivalSpec
from repro.workload.fanout import FanoutSpec
from repro.workload.popularity import PopularitySpec
from repro.workload.sizes import SizeSpec


class Keyspace:
    """The fixed population of keys and their value sizes.

    Parameters
    ----------
    size:
        Number of keys.
    size_spec:
        Distribution the per-key value sizes are drawn from (once).
    rng:
        Generator used for the one-time size draw.
    prefix:
        Key-name prefix; keys are ``f"{prefix}{index:010d}"``.
    """

    def __init__(
        self,
        size: int,
        size_spec: SizeSpec,
        rng: np.random.Generator,
        prefix: str = "key:",
    ):
        if size < 1:
            raise WorkloadError("keyspace size must be >= 1")
        self.size = size
        self.prefix = prefix
        self.value_sizes = size_spec.draw(as_batched(rng), size)

    def key_name(self, index: int) -> str:
        if not 0 <= index < self.size:
            raise WorkloadError(f"key index {index} out of range [0, {self.size})")
        return f"{self.prefix}{index:010d}"

    def key_names(self, indices) -> List[str]:
        """Key names for an index array, formatted on each call.

        The simulated cluster calls it once, for every index, to build
        its key table; no request formats a name.
        """
        prefix = self.prefix
        return [f"{prefix}{i:010d}" for i in indices]

    def value_size(self, index: int) -> int:
        return int(self.value_sizes[index])

    def mean_value_size(self) -> float:
        """Empirical mean of the materialized sizes (what load actually sees)."""
        return float(self.value_sizes.mean())

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"Keyspace(size={self.size}, mean_value={self.mean_value_size():.1f}B)"


@dataclass(frozen=True)
class RequestSpec:
    """Declarative description of a request stream."""

    arrivals: ArrivalSpec
    fanout: FanoutSpec
    popularity: PopularitySpec
    put_fraction: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.put_fraction <= 1.0:
            raise WorkloadError("put_fraction must be in [0, 1]")


#: Requests drawn per block: one refill draws this many requests'
#: fan-outs, key indices and put coins, one call per stream.  Each stream
#: feeds one component, so drawing ahead moves no sequence.
REQUEST_BLOCK = 256

#: What a factory hands out per request: key indices (key names for a
#: trace), put flags (None: all gets) and value sizes (None: the key's).
RequestDraw = Tuple[list, Optional[list], Optional[list]]


class RequestFactory:
    """Stateful generator of one client's requests.

    Each factory owns independent sub-streams for arrivals, fan-out, key
    choice, and the GET/PUT coin so components never perturb each other.
    The first block is drawn by the first :meth:`next_request`, so
    building a factory draws nothing.
    """

    def __init__(
        self,
        spec: RequestSpec,
        keyspace: Keyspace,
        rng_arrivals: np.random.Generator,
        rng_fanout: np.random.Generator,
        rng_keys: np.random.Generator,
        rng_kind: Optional[np.random.Generator] = None,
    ):
        cap = spec.fanout.max_fanout()
        if cap > keyspace.size:
            raise WorkloadError(
                f"max fanout {cap} exceeds keyspace size {keyspace.size}"
            )
        if spec.put_fraction > 0 and rng_kind is None:
            raise WorkloadError("put_fraction > 0 requires rng_kind")
        self.spec = spec
        #: ``next_interarrival(now)``: the gap until this client's next
        #: request.
        self.next_interarrival = spec.arrivals.gaps(as_batched(rng_arrivals))
        self._fanout_stream = as_batched(rng_fanout)
        self._popularity = spec.popularity.build(keyspace.size, rng_keys, cap)
        self._rng_kind = as_batched(rng_kind) if rng_kind is not None else None
        self._block: List[RequestDraw] = []
        self._cursor = 0
        self.generated = 0

    def next_request(self) -> RequestDraw:
        """The next request's ``(key indices, put flags, None)``."""
        i = self._cursor
        if i == len(self._block):
            self._draw_block()
            i = 0
        self._cursor = i + 1
        self.generated += 1
        return self._block[i]

    def _draw_block(self) -> None:
        """Draw the next :data:`REQUEST_BLOCK` requests, one call per stream.

        The sequences are the ones per-request draws would give (see
        ``tests/workload/test_batched_equivalence.py``).
        """
        fanouts = self.spec.fanout.draw(self._fanout_stream, REQUEST_BLOCK)
        keys = self._popularity.sample_block(fanouts)
        ends = np.cumsum(fanouts).tolist()
        starts = [0] + ends[:-1]
        put_fraction = self.spec.put_fraction
        if put_fraction > 0:
            puts = (self._rng_kind.random_block(len(keys)) < put_fraction).tolist()
            self._block = [
                (keys[a:b], puts[a:b], None) for a, b in zip(starts, ends)
            ]
        else:
            self._block = [(keys[a:b], None, None) for a, b in zip(starts, ends)]

    def mean_ops_per_request(self) -> float:
        return self.spec.fanout.mean()


def arrival_rate_for_load(
    target_load: float,
    fanout_mean: float,
    mean_demand: float,
    n_servers: int,
    mean_speed: float = 1.0,
) -> float:
    """Total arrival rate (requests/s) achieving ``target_load`` utilization."""
    if not 0 < target_load:
        raise WorkloadError("target_load must be positive")
    if mean_demand <= 0 or fanout_mean <= 0:
        raise WorkloadError("mean demand and fanout must be positive")
    return target_load * n_servers * mean_speed / (fanout_mean * mean_demand)


class TraceReplayFactory:
    """Drop-in replacement for :class:`RequestFactory` that replays a trace.

    Replays every ``stride``-th record starting at ``start`` (so N clients
    can partition one trace without coordination).  Interarrivals derive
    from the absolute record times; after the last record the factory
    reports an infinite gap, ending generation.  A record names its keys
    and carries its own sizes, which the client serves as they are.
    """

    def __init__(self, records, start: int = 0, stride: int = 1):
        if stride < 1:
            raise WorkloadError("stride must be >= 1")
        if start < 0 or start >= stride:
            raise WorkloadError("need 0 <= start < stride")
        records = list(records)
        for i in range(1, len(records)):
            if records[i].t < records[i - 1].t:
                raise TraceFormatError(
                    f"record {i}: arrival times must be non-decreasing "
                    f"({records[i].t} after {records[i - 1].t})"
                )
        self._records = records[start::stride]
        self._idx = 0
        self.generated = 0

    def __len__(self) -> int:
        return len(self._records)

    def next_interarrival(self, now: float) -> float:
        if self._idx >= len(self._records):
            return float("inf")
        return max(0.0, self._records[self._idx].t - now)

    def next_request(self) -> RequestDraw:
        """The next record's ``(key names, put flags, sizes)``."""
        if self._idx >= len(self._records):
            raise WorkloadError("trace exhausted")
        record = self._records[self._idx]
        self._idx += 1
        self.generated += 1
        return record.keys, record.is_put, record.sizes

    def mean_ops_per_request(self) -> float:
        if not self._records:
            return 0.0
        return sum(len(r.keys) for r in self._records) / len(self._records)
