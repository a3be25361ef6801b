"""Content-hash LRU result cache for the serving layer.

Keyed exactly like :class:`repro.verilog.compile.CompileCache` — a SHA-256
content hash — but over the *request* (design source + canonical solve
options) and holding finished :class:`repro.serve.service.SolveResponse`
objects, so a repeat design is served without recompiling or re-running
the bounded checker at all.

Responses are deterministic functions of the request (every RNG stream
derives from the request's content hash), so serving a cached response is
byte-identical to recomputing it — asserted by the test suite and the
serve bench.  Cached responses are shared objects: treat them as
immutable, exactly like cached :class:`CompileResult` objects.

That same byte-determinism is what makes the optional persistent tier
sound: with a :class:`repro.store.DiskStore` attached (see
``ServeConfig.store``), responses spill to disk on write and refill from
it on a memory miss, letting multiple :class:`AssertService` instances —
across processes, restarts, and hosts sharing a filesystem — pool one
response set.  Cached == recomputed, so it never matters *which*
instance solved a request first.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional

from repro.store.base import NS_SERVE, content_key

__all__ = ["ResultCache", "content_key"]


class ResultCache:
    """Thread-safe content-hash LRU of solve responses.

    Counters are monotonic (like :class:`CompileCache`'s) so deltas
    between snapshots are meaningful; they surface on ``/metricsz`` and
    in :class:`repro.serve.service.ServiceStats`.  With a backing ``store``,
    a memory miss consults it before reporting a miss (``store_hits``
    counts the refills — ``hits + store_hits + misses == lookups``) and
    every ``put`` writes through, so entries evicted from memory refill
    from the store instead of being lost.

    The service looks a solve up in two steps, :meth:`probe` at submit
    and :meth:`recheck` at flush for a probe that missed, and each
    request still counts once.  A request cancelled, expired or failed
    by ``close()`` before its flush never settles its miss and counts in
    none of the three.

    ``scope`` names what else, besides the request, a response depends
    on: the service passes its config's semantic digest (the ``seed``
    every solve's RNG streams derive from), with its ``coverage`` flag
    folded in when on (responses then carry a coverage block).  The
    memory tier belongs to one service, so its keys are request keys;
    the store may be shared by services with different configs, so its
    keys are ``content_key(scope, key)`` and two scopes never serve each
    other.
    """

    def __init__(self, max_entries: int = 1024, store=None,
                 namespace: str = NS_SERVE, scope: str = ""):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.store = store
        self.namespace = namespace
        self.scope = scope
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
        return content_key(self.scope, key) if self.scope else key

    def get(self, key: str) -> Optional[object]:
        """The cached response for ``key``, counting a hit or a miss."""
        cached = self.probe(key)
        if cached is None:
            with self._lock:
                self.misses += 1
        return cached

    def probe(self, key: str) -> Optional[object]:
        """Memory, then the store: counts a hit or a store hit, but leaves
        a miss uncounted — the caller settles it later with
        :meth:`recheck`, so each lookup still counts exactly once and the
        store is read once."""
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

    def recheck(self, key: str, lookups: int = 1) -> Optional[object]:
        """Memory only, for ``lookups`` requests whose :meth:`probe`
        missed: counts them all as hits (an earlier put filled the key
        meanwhile) or all as misses."""
        with self._lock:
            cached = self._entries.get(key)
            if cached is None:
                self.misses += lookups
            else:
                self.hits += lookups
                self._entries.move_to_end(key)
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
        total = self.hits + self.store_hits + self.misses
        return (self.hits + self.store_hits) / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover
        return (f"ResultCache({len(self._entries)}/{self.max_entries} "
                f"entries, {self.hits} hits, {self.misses} misses)")
