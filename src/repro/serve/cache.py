"""Result cache keyed by (input fingerprint, service mode).

Atmospheric workloads re-run the same wind state (ensemble members,
restarted pipelines, identical verification requests), so the fleet
memoises finished jobs: key = blake2b fingerprint of the raw input
field bytes + grid dims (:func:`~repro.serve.job.fingerprint_fields`)
crossed with the service mode, value = the numeric sources plus the
checksum (and cycle stats for the exact tier).

Mode is part of the key because the tiers deliver different artefacts —
a functional entry has no cycle stats to hand an exact request.  The numbers
themselves are bit-identical across tiers, so a cache hit can never
launder a different answer: the stored checksum *is* the golden one.

Bounded LRU; ``capacity=0`` disables caching entirely (every lookup is
a recorded miss).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

from repro.core.fields import SourceSet
from repro.errors import ConfigurationError

__all__ = ["CacheEntry", "ResultCache"]


@dataclass(frozen=True)
class CacheEntry:
    """Memoised outcome of one (input, mode) computation."""

    checksum: str
    sources: SourceSet
    stats_cycles: int | None = None


class ResultCache:
    """LRU over (fingerprint, mode) with hit/miss/eviction accounting."""

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 0:
            raise ConfigurationError(
                f"cache capacity must be >= 0, got {capacity}"
            )
        self.capacity = capacity
        self._entries: OrderedDict[tuple[str, str], CacheEntry] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, fingerprint: str, mode: str) -> CacheEntry | None:
        key = (fingerprint, mode)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, fingerprint: str, mode: str, entry: CacheEntry) -> None:
        if self.capacity == 0:
            return
        key = (fingerprint, mode)
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def to_dict(self) -> dict[str, Any]:
        return {
            "capacity": self.capacity,
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
