"""The one memory LRU over an optional backing store.

:class:`repro.verilog.compile.CompileCache` and
:class:`repro.serve.cache.ResultCache` are both this: a thread-safe,
entry-budgeted LRU of live objects whose memory misses consult a
backing :class:`repro.store.ArtifactStore` (refilling the LRU on a hit)
and whose puts write through to it, so an entry evicted from memory
refills from the store instead of being lost.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional


class StoreBackedLRU:
    """Memory LRU with store refill and write-through.

    Counters are monotonic so deltas between snapshots are meaningful.
    ``store_hits`` counts refills from the store, and each lookup counts
    once, so ``hits + store_hits + misses == lookups``; when a store is
    attached its own hit/miss deltas equal ``store_hits`` plus
    ``misses`` (every memory miss consults the store exactly once).
    """

    def __init__(self, max_entries: int, store, namespace: str):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.store = store
        self.namespace = namespace
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.store_hits = 0
        self._entries: "OrderedDict[str, object]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def _insert_locked(self, key: str, value: object) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def _store_key(self, key: str) -> str:
        """The store key ``key`` is filed under (the memory key here)."""
        return key

    def probe(self, key: str) -> Optional[object]:
        """Memory, then the store: counts a hit or a store hit, but leaves
        a miss uncounted for the caller to settle."""
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return cached
        if self.store is not None:
            stored = self.store.get(self.namespace, self._store_key(key))
            if stored is not None:
                with self._lock:
                    self.store_hits += 1
                    self._insert_locked(key, stored)
                return stored
        return None

    def get(self, key: str) -> Optional[object]:
        """The cached value for ``key``, counting a hit or a miss."""
        cached = self.probe(key)
        if cached is None:
            with self._lock:
                self.misses += 1
        return cached

    def put(self, key: str, value: object) -> None:
        with self._lock:
            self._insert_locked(key, value)
        if self.store is not None:
            self.store.put(self.namespace, self._store_key(key), value)

    def clear(self) -> None:
        """Drop the in-memory tier (the backing store keeps its entries)."""
        with self._lock:
            self._entries.clear()

    def counters(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "store_hits": self.store_hits}

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without recomputing (either tier)."""
        total = self.hits + self.store_hits + self.misses
        return (self.hits + self.store_hits) / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover
        return (f"{type(self).__name__}({len(self._entries)}/"
                f"{self.max_entries} entries, {self.hits} hits, "
                f"{self.misses} misses)")
