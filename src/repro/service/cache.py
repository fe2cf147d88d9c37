"""Content-addressed LRU response cache of the estimator service.

Entries are keyed by the SHA-256 of ``(database checksum, canonical
request body)``: every input that could change a response is in the
key, so correctness never depends on explicit invalidation.  A
database hot-reload changes the checksum, which makes every entry cached
under the old snapshot *unreachable*; the LRU bound then retires them
as new traffic fills the cache.  Stale responses are impossible by
construction, not flushed by a race-prone purge.

The cache is process-local and unsynchronised: the service runs a
single asyncio event loop (one request mutates the cache at a time).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Any

__all__ = ["ResponseCache", "response_cache_key"]


def response_cache_key(etag: str, canonical_body: str) -> str:
    """The content address of one (database snapshot, request) pair.

    Args:
        etag: Fingerprint digest of the serving database snapshot
            (:attr:`repro.service.state.DatabaseSnapshot.etag`).
        canonical_body: Normalised canonical request body
            (:meth:`repro.service.schema.BatchRequest.canonical_body`).

    Returns:
        A SHA-256 hex digest; equal inputs -> equal key, any change to
        either half -> a different, never-colliding-by-accident key.
    """
    payload = f"{etag}\n{canonical_body}".encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


class ResponseCache:
    """Bounded LRU map from content address to rendered response bytes.

    Args:
        max_entries: Capacity; the least-recently-*used* entry is
            evicted at overflow.  Zero disables caching (every lookup
            misses, nothing is stored).

    Attributes:
        hits: Lookups served from the cache.
        misses: Lookups that fell through to the estimator.
        evictions: Entries retired by the LRU bound.
    """

    def __init__(self, max_entries: int = 1024) -> None:
        if max_entries < 0:
            raise ValueError(
                f"max_entries must be >= 0, got {max_entries}")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: OrderedDict[str, bytes] = OrderedDict()

    def __len__(self) -> int:
        """Number of live entries."""
        return len(self._entries)

    def get(self, key: str) -> bytes | None:
        """The cached response for ``key``, refreshing its recency.

        Returns:
            The rendered response bytes, or ``None`` on a miss.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: str, value: bytes) -> None:
        """Store a rendered response, evicting LRU entries at capacity."""
        if self.max_entries == 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def stats(self) -> dict[str, Any]:
        """A JSON-serialisable counter snapshot (for ``/v1/health``)."""
        probes = self.hits + self.misses
        return {
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": (self.hits / probes) if probes else None,
        }
