"""Content-hash LRU result cache for the serving layer.

Keyed exactly like :class:`repro.verilog.compile.CompileCache` — a SHA-256
content hash — but over the *request* (design source + canonical solve
options) and holding finished :class:`repro.serve.service.SolveResponse`
objects, so a repeat design is served without recompiling or re-running
the bounded checker at all.  Both caches are a
:class:`repro.store.lru.StoreBackedLRU`.

Responses are deterministic functions of the request (every RNG stream
derives from the request's content hash), so serving a cached response is
byte-identical to recomputing it — asserted by the test suite and the
serve bench.  Cached responses are shared objects: treat them as
immutable, exactly like cached :class:`CompileResult` objects.

That same byte-determinism is what makes the optional persistent tier
sound: with a store attached (``ServeConfig.store``), responses write
through to it and refill from it on a memory miss, letting multiple
:class:`AssertService` instances — across processes, restarts, and
hosts sharing a filesystem — pool one response set.  Cached ==
recomputed, so it never matters *which* instance solved a request first.
"""

from __future__ import annotations

from typing import Optional

from repro.store.base import NS_SERVE, content_key
from repro.store.lru import StoreBackedLRU

__all__ = ["ResultCache", "content_key"]


class ResultCache(StoreBackedLRU):
    """Thread-safe content-hash LRU of solve responses.

    Its counters surface on ``/metricsz`` and in
    :class:`repro.serve.service.ServiceStats`.

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

    def __init__(self, max_entries: int = 1024, store=None, scope: str = ""):
        super().__init__(max_entries, store, NS_SERVE)
        self.scope = scope

    def _store_key(self, key: str) -> str:
        return content_key(self.scope, key) if self.scope else key

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
