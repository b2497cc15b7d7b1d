"""The one fingerprint-keyed LRU behind the plan and pack caches.

``runtime/plan.py`` (graph plans), ``runtime/pack.py`` (packed graph
plans) and ``sim/pack.py`` (packed simulation plans) each cache compiled
structures under content-hash keys; ``models/base.py`` caches initial
hidden-state bases under ``(num_nodes, hidden)``.  They all share this
class: a bounded, thread-safe ``OrderedDict`` with hit/miss/eviction
counters and a double-checked insert, so concurrent builders of the same
key end up sharing the first entry that landed.  Every cache reports its
statistics as one record type, :class:`CacheInfo`.

Like :mod:`repro.memory`, this module sits above the layers that use it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable

__all__ = ["CacheInfo", "FingerprintLRU"]


@dataclass(frozen=True)
class CacheInfo:
    """A snapshot of one cache's counters and bound."""

    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int


class FingerprintLRU:
    """Bounded LRU of immutable compiled values keyed by content hashes.

    ``name`` words the error raised for a non-positive bound.
    """

    def __init__(self, maxsize: int, name: str = "cache") -> None:
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._maxsize = maxsize
        self._hits = self._misses = self._evictions = 0
        self._name = name

    def get(self, key: Hashable) -> Any | None:
        """The cached value, counted as a hit — or ``None``, a miss."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self._misses += 1
            else:
                self._entries.move_to_end(key)
                self._hits += 1
            return value

    def insert(self, key: Hashable, value: Any) -> Any:
        """Publish ``value`` built after a miss; returns the shared entry.

        When another thread published the same key first, its entry wins,
        so every caller holds one value per key.
        """
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                self._entries.move_to_end(key)
                return existing
            self._entries[key] = value
            while len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)
                self._evictions += 1
            return value

    def configure(self, maxsize: int) -> None:
        """Bound the cache to ``maxsize`` entries (evicts LRU-first)."""
        if maxsize < 1:
            raise ValueError(
                f"{self._name} needs room for at least one entry"
            )
        with self._lock:
            self._maxsize = int(maxsize)
            while len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss/eviction counters."""
        with self._lock:
            self._entries.clear()
            self._hits = self._misses = self._evictions = 0

    def info(self) -> CacheInfo:
        """Current statistics (hits/misses/evictions/size/maxsize)."""
        with self._lock:
            return CacheInfo(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                maxsize=self._maxsize,
            )
