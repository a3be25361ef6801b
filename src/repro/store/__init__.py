"""Persistent content-addressed artifact store.

Every cache elsewhere in the system (the compile cache, the serving
result cache, stage-level memoization) is an in-memory, per-process LRU.
This package is the durable tier underneath them, and the one LRU
implementation the first two share:

- :mod:`repro.store.base` — the :class:`ArtifactStore` contract,
  SHA-256 :func:`content_key` addressing, versioned namespaces
  (``compile/v1`` / ``serve/v1`` / ``stage/v1``), monotonic counters;
- :mod:`repro.store.memory` — :class:`MemoryStore`, the entry-budgeted
  LRU default (no persistence, no serialization);
- :mod:`repro.store.disk` — :class:`DiskStore`: atomic
  write-via-tempfile-rename blobs, digest-verified reads that quarantine
  corruption instead of raising, size-budgeted LRU eviction with an
  on-disk index; safe under concurrent writers across processes;
- :mod:`repro.store.tiered` — :class:`TieredStore`: memory front over a
  disk back (promote on hit, write through on put);
- :mod:`repro.store.lru` — :class:`StoreBackedLRU`, the memory LRU with
  store refill and write-through that
  :class:`repro.verilog.compile.CompileCache` and
  :class:`repro.serve.cache.ResultCache` are built on;
- :mod:`repro.store.config` — :class:`StoreConfig` (``path`` and
  ``max_bytes``), the knob block the pipeline/serve configs embed.

Because every artifact producer in the system is a pure function of its
content-addressed inputs (compile results of source text, solve
responses of request hashes, stage units of derived seeds), a store hit
is byte-identical to recomputation — which is what makes sharing entries
across runs, processes, and service instances sound.
"""

from repro.store.base import (
    NS_COMPILE,
    NS_EVAL,
    NS_SERVE,
    NS_STAGE,
    ArtifactStore,
    content_key,
    unit_memo_key,
)
from repro.store.config import StoreConfig
from repro.store.disk import DiskStore
from repro.store.lru import StoreBackedLRU
from repro.store.memory import MemoryStore
from repro.store.tiered import TieredStore

__all__ = [
    "NS_COMPILE",
    "NS_EVAL",
    "NS_SERVE",
    "NS_STAGE",
    "ArtifactStore",
    "DiskStore",
    "MemoryStore",
    "StoreBackedLRU",
    "StoreConfig",
    "TieredStore",
    "content_key",
    "unit_memo_key",
]
