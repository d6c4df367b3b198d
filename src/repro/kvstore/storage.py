"""In-memory key-value storage engine.

Each simulated server owns one :class:`StorageEngine`.  The engine is a
real data plane — values are stored (as sizes plus optional payloads),
versioned, TTL-expirable, and size-accounted — so the simulation serves
actual lookups instead of pretending.

The engine is deliberately synchronous: storage *latency* is modelled by
the server's :class:`~repro.kvstore.service.ServiceModel`, while the
engine models storage *semantics*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from repro.errors import KeyNotFoundError, StorageError

DEFAULT_NAMESPACE = "default"


@dataclass(slots=True)
class StoredValue:
    """A stored record.  ``payload`` may be None when only size matters."""

    size: int
    version: int
    created_at: float
    expires_at: Optional[float] = None
    payload: Optional[bytes] = None

    def expired(self, now: float) -> bool:
        return self.expires_at is not None and now >= self.expires_at


class StorageEngine:
    """Hash-indexed, namespaced, TTL-aware in-memory store.

    Parameters
    ----------
    server_id:
        Owning server (used in error messages and stats only).
    track_payloads:
        When False (simulation default) values store sizes only, keeping
        memory proportional to the keyspace instead of the data set.
    """

    def __init__(self, server_id: int = 0, track_payloads: bool = False):
        self.server_id = server_id
        self.track_payloads = track_payloads
        self._spaces: Dict[str, Dict[str, StoredValue]] = {DEFAULT_NAMESPACE: {}}
        self._bytes = 0
        self._versions = 0
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.deletes = 0
        self.expirations = 0

    # ------------------------------------------------------------------
    # Namespaces
    # ------------------------------------------------------------------
    def create_namespace(self, namespace: str) -> None:
        if namespace in self._spaces:
            raise StorageError(f"namespace already exists: {namespace!r}")
        self._spaces[namespace] = {}

    def namespaces(self) -> list[str]:
        return sorted(self._spaces)

    def _space(self, namespace: str) -> Dict[str, StoredValue]:
        try:
            return self._spaces[namespace]
        except KeyError:
            raise StorageError(f"unknown namespace: {namespace!r}") from None

    # ------------------------------------------------------------------
    # CRUD
    # ------------------------------------------------------------------
    def put(
        self,
        key: str,
        size: int,
        now: float = 0.0,
        ttl: Optional[float] = None,
        payload: Optional[bytes] = None,
        namespace: str = DEFAULT_NAMESPACE,
    ) -> int:
        """Insert or overwrite ``key``; returns the new version number."""
        if size < 0:
            raise StorageError(f"negative value size {size} for key {key!r}")
        if ttl is not None and ttl <= 0:
            raise StorageError(f"non-positive ttl {ttl} for key {key!r}")
        space = self._space(namespace)
        old = space.get(key)
        if old is not None:
            self._bytes -= old.size
        self._versions += 1
        record = StoredValue(
            size=size,
            version=self._versions,
            created_at=now,
            expires_at=(now + ttl) if ttl is not None else None,
            payload=payload if self.track_payloads else None,
        )
        space[key] = record
        self._bytes += size
        self.puts += 1
        return record.version

    def bulk_put(
        self,
        items,
        now: float = 0.0,
        namespace: str = DEFAULT_NAMESPACE,
    ) -> None:
        """Insert many ``(key, size)`` pairs in one pass (preload fast path).

        Equivalent to calling :meth:`put` per pair (same version sequence,
        same counters) minus the per-call option handling — cluster preload
        loads every replica of every key before the clock starts, which is
        a measurable slice of cell wall time at experiment scale.
        """
        space = self._space(namespace)
        version = self._versions
        added = 0
        count = 0
        for key, size in items:
            if size < 0:
                raise StorageError(f"negative value size {size} for key {key!r}")
            old = space.get(key)
            if old is not None:
                added -= old.size
            version += 1
            space[key] = StoredValue(size=size, version=version, created_at=now)
            added += size
            count += 1
        self._versions = version
        self._bytes += added
        self.puts += count

    def get(
        self, key: str, now: float = 0.0, namespace: str = DEFAULT_NAMESPACE
    ) -> StoredValue:
        """Look up ``key``; raises :class:`KeyNotFoundError` on miss/expiry."""
        space = self._space(namespace)
        record = space.get(key)
        if record is not None and record.expired(now):
            del space[key]
            self._bytes -= record.size
            self.expirations += 1
            record = None
        if record is None:
            self.misses += 1
            raise KeyNotFoundError(key)
        self.hits += 1
        return record

    def contains(
        self, key: str, now: float = 0.0, namespace: str = DEFAULT_NAMESPACE
    ) -> bool:
        """Non-counting existence check (does not disturb hit/miss stats)."""
        space = self._space(namespace)
        record = space.get(key)
        return record is not None and not record.expired(now)

    def peek_size(
        self, key: str, now: float = 0.0, namespace: str = DEFAULT_NAMESPACE
    ) -> int:
        """Non-counting size lookup, 0 when ``key`` is absent or expired.

        For sizing an operation before it is served: the read that serves
        it is the one that counts as the hit or miss.
        """
        record = self._space(namespace).get(key)
        if record is None or record.expired(now):
            return 0
        return record.size

    def delete(self, key: str, namespace: str = DEFAULT_NAMESPACE) -> bool:
        """Remove ``key``; returns True if it was present."""
        space = self._space(namespace)
        record = space.pop(key, None)
        if record is None:
            return False
        self._bytes -= record.size
        self.deletes += 1
        return True

    def size_of(
        self, key: str, now: float = 0.0, namespace: str = DEFAULT_NAMESPACE
    ) -> int:
        """Value size in bytes (the demand driver for service times)."""
        return self.get(key, now=now, namespace=namespace).size

    # ------------------------------------------------------------------
    # Maintenance & stats
    # ------------------------------------------------------------------
    def sweep_expired(self, now: float, namespace: str = DEFAULT_NAMESPACE) -> int:
        """Eagerly drop expired records; returns how many were removed."""
        space = self._space(namespace)
        doomed = [k for k, v in space.items() if v.expired(now)]
        for key in doomed:
            self._bytes -= space[key].size
            del space[key]
        self.expirations += len(doomed)
        return len(doomed)

    def scan(
        self, namespace: str = DEFAULT_NAMESPACE
    ) -> Iterator[Tuple[str, StoredValue]]:
        """Iterate (key, record) pairs; order is insertion order."""
        yield from self._space(namespace).items()

    @property
    def key_count(self) -> int:
        return sum(len(s) for s in self._spaces.values())

    @property
    def byte_count(self) -> int:
        return self._bytes

    def stats(self) -> Dict[str, int]:
        return {
            "keys": self.key_count,
            "bytes": self._bytes,
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "deletes": self.deletes,
            "expirations": self.expirations,
        }

    def __repr__(self) -> str:
        return (
            f"StorageEngine(server={self.server_id}, keys={self.key_count}, "
            f"bytes={self._bytes})"
        )
