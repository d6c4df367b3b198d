"""Key -> server ownership via consistent hashing.

A classic consistent-hash ring with virtual nodes.  The hash function is
BLAKE2b (stable across processes and Python versions, unlike built-in
``hash``), so partitioning — and therefore every experiment — is fully
deterministic.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List, Sequence

from repro.errors import PartitioningError

_RING_BITS = 64
_RING_SIZE = 2**_RING_BITS


def stable_hash(data: str) -> int:
    """Deterministic 64-bit hash of a string."""
    digest = hashlib.blake2b(data.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class ConsistentHashRing:
    """Consistent-hash ring mapping keys to server ids.

    Parameters
    ----------
    server_ids:
        The participating servers.
    vnodes:
        Virtual nodes per server; more vnodes give better balance at the
        cost of ring size.  128 keeps worst/mean ownership within ~15% for
        typical cluster sizes.
    """

    def __init__(self, server_ids: Iterable[int], vnodes: int = 128):
        server_list = list(server_ids)
        if not server_list:
            raise PartitioningError("ring needs at least one server")
        if len(set(server_list)) != len(server_list):
            raise PartitioningError("duplicate server ids on ring")
        if vnodes < 1:
            raise PartitioningError("vnodes must be >= 1")
        self.vnodes = vnodes
        self._owners: Dict[int, int] = {}
        self._servers: List[int] = sorted(server_list)
        #: (key, n) -> preference list.  The ring is static for the length
        #: of a run, the key population is fixed, and the walk is pure, so
        #: caching is exact; membership changes invalidate it.  The walk
        #: itself only depends on the ring *slot* a key hashes into, so a
        #: second cache keyed by (slot, n) bounds the number of walks by
        #: the number of ring points regardless of keyspace size.
        self._pref_cache: Dict[tuple, List[int]] = {}
        self._slot_pref_cache: Dict[tuple, List[int]] = {}
        for sid in self._servers:
            self._add_points(sid)
        self._points: List[int] = sorted(self._owners)

    def _add_points(self, server_id: int) -> None:
        """Hash ``server_id``'s vnodes into ``_owners``; the caller re-sorts."""
        for v in range(self.vnodes):
            point = stable_hash(f"server:{server_id}/vnode:{v}")
            while point in self._owners:  # vanishingly rare 64-bit collision
                point = (point + 1) % _RING_SIZE
            self._owners[point] = server_id

    def _remove_points(self, server_id: int) -> None:
        doomed = [p for p, s in self._owners.items() if s == server_id]
        for point in doomed:
            del self._owners[point]
        doomed_set = set(doomed)
        self._points = [p for p in self._points if p not in doomed_set]

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    @property
    def servers(self) -> List[int]:
        return list(self._servers)

    def add_server(self, server_id: int) -> None:
        if server_id in self._servers:
            raise PartitioningError(f"server {server_id} already on ring")
        bisect.insort(self._servers, server_id)
        self._add_points(server_id)
        self._points = sorted(self._owners)
        self._pref_cache.clear()
        self._slot_pref_cache.clear()

    def remove_server(self, server_id: int) -> None:
        if server_id not in self._servers:
            raise PartitioningError(f"server {server_id} not on ring")
        if len(self._servers) == 1:
            raise PartitioningError("cannot remove the last server")
        self._servers.remove(server_id)
        self._remove_points(server_id)
        self._pref_cache.clear()
        self._slot_pref_cache.clear()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def owner(self, key: str) -> int:
        """The primary owner of ``key`` (the head of its preference list).

        Served from the preference-list cache, so a key is hashed once per
        membership rather than on every lookup.
        """
        return self.preference_list(key, 1)[0]

    def preference_list(self, key: str, n: int) -> List[int]:
        """The first ``n`` *distinct* servers clockwise from the key.

        This is the replica placement walk used by Dynamo-style stores.
        Results are cached per ``(key, n)`` for the life of the membership
        (every operation on a key repeats the same walk); callers must not
        mutate the returned list.
        """
        cache_key = (key, n)
        cached = self._pref_cache.get(cache_key)
        if cached is None:
            cached = self._pref_cache[cache_key] = self.preference_lists((key,), n)[0]
        return cached

    def preference_lists(self, keys: Iterable[str], n: int) -> List[List[int]]:
        """:meth:`preference_list` of each key, caching nothing per key.

        For a caller that asks for every key once (the simulator's key
        table): the walks go through the per-slot cache only, so the
        per-key cache stays empty.
        """
        if n < 1:
            raise PartitioningError("preference list length must be >= 1")
        if n > len(self._servers):
            raise PartitioningError(
                f"requested {n} replicas but only {len(self._servers)} servers"
            )
        points, owners = self._points, self._owners
        slot_cache = self._slot_pref_cache
        lists = []
        for key in keys:
            idx = bisect.bisect_right(points, stable_hash(key))
            result = slot_cache.get((idx, n))
            if result is None:
                result = []
                seen = set()
                for step in range(len(points)):
                    sid = owners[points[(idx + step) % len(points)]]
                    if sid not in seen:
                        seen.add(sid)
                        result.append(sid)
                        if len(result) == n:
                            break
                if len(result) < n:
                    raise PartitioningError(
                        "ring walk failed to find enough distinct servers"
                    )
                slot_cache[(idx, n)] = result
            lists.append(result)
        return lists

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def ownership_fractions(self, sample_keys: Sequence[str]) -> Dict[int, float]:
        """Fraction of ``sample_keys`` owned by each server."""
        counts = {sid: 0 for sid in self._servers}
        for key in sample_keys:
            counts[self.owner(key)] += 1
        total = max(1, len(sample_keys))
        return {sid: c / total for sid, c in counts.items()}

    def balance_ratio(self, sample_keys: Sequence[str]) -> float:
        """max/mean ownership fraction; 1.0 is perfectly balanced."""
        fractions = list(self.ownership_fractions(sample_keys).values())
        mean = sum(fractions) / len(fractions)
        if mean == 0:
            return 1.0
        return max(fractions) / mean

    def __repr__(self) -> str:
        return (
            f"ConsistentHashRing(servers={len(self._servers)}, "
            f"vnodes={self.vnodes})"
        )
