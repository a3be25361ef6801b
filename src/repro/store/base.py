"""Artifact-store contract and content-addressing primitives.

An :class:`ArtifactStore` maps ``(namespace, key)`` to an arbitrary
picklable Python object.  Keys are SHA-256 content hashes (see
:func:`content_key`), so a store never needs invalidation: a different
input is a different key.  Namespaces are versioned path-like strings
(``compile/v1``, ``serve/v1``, ``stage/v1``) — bumping the version when
an artifact's schema changes orphans old entries instead of corrupting
readers, and the size-budgeted eviction reclaims them.

The contract every implementation honours:

- ``get`` returns the stored object or ``None``; it **never raises** for
  a missing, partially-written, or corrupted entry (corruption counts as
  a miss and the entry is quarantined);
- ``put`` is atomic: concurrent readers observe either the complete
  previous state or the complete new value, never a torn write;
- counters (``hits`` / ``misses`` / ``writes`` / ``evictions`` /
  ``corrupt``) are monotonic, so deltas between snapshots are meaningful
  — the same convention as :class:`repro.verilog.compile.CompileCache`.

Values must be treated as immutable once stored: ``get`` may hand back a
shared object (memory tier) or a fresh unpickle (disk tier), and callers
must not be able to tell the difference.
"""

from __future__ import annotations

import hashlib
import re
import threading
import weakref
from typing import Dict, Optional

from repro.engine import metrics as engine_metrics

#: Canonical namespaces, versioned so schema changes never mix artifacts.
NS_COMPILE = "compile/v1"
NS_SERVE = "serve/v1"
NS_STAGE = "stage/v1"
NS_EVAL = "eval/v1"

_NAMESPACE_RE = re.compile(r"[a-z0-9_]+(/[a-z0-9_]+)*")
_KEY_RE = re.compile(r"[0-9a-f]{8,128}")


def content_key(*parts: str) -> str:
    """SHA-256 over length-prefixed parts (no separator collisions)."""
    digest = hashlib.sha256()
    for part in parts:
        data = part.encode("utf-8")
        digest.update(str(len(data)).encode("ascii"))
        digest.update(b":")
        digest.update(data)
    return digest.hexdigest()


def unit_memo_key(stage_name: str, unit_id: str, config_digest: str,
                  global_seed: int, *extra: object) -> str:
    """The stage-memoization key: ``(stage, unit, config, seed)``.

    ``config_digest`` must cover every semantic knob that can change the
    unit's output (see :meth:`DatagenConfig.semantic_digest`); execution
    knobs (workers, backend, caches) stay out, so a parallel re-run hits
    the entries a serial run stored.  ``extra`` disambiguates sibling
    units that share a ``unit_id`` (e.g. stage 3's per-design ordinals).
    """
    return content_key("stage-memo", stage_name, unit_id, config_digest,
                       repr(global_seed), *[str(part) for part in extra])


def validate_namespace(namespace: str) -> str:
    if not isinstance(namespace, str) \
            or _NAMESPACE_RE.fullmatch(namespace) is None:
        raise ValueError(
            f"namespace must match {_NAMESPACE_RE.pattern!r} "
            f"(e.g. 'compile/v1'), got {namespace!r}")
    return namespace


def validate_key(key: str) -> str:
    if not isinstance(key, str) or _KEY_RE.fullmatch(key) is None:
        raise ValueError(
            f"store keys are lowercase hex digests, got {key!r}")
    return key


class ArtifactStore:
    """Base class: counter bookkeeping shared by every implementation."""

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.evictions = 0
        self.corrupt = 0
        self._lock = threading.RLock()
        _LIVE_STORES.add(self)

    # -- contract ------------------------------------------------------------

    def get(self, namespace: str, key: str) -> Optional[object]:
        raise NotImplementedError

    def put(self, namespace: str, key: str, value: object) -> None:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    # -- reporting -----------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "writes": self.writes, "evictions": self.evictions,
                    "corrupt": self.corrupt}

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover
        return (f"{type(self).__name__}({len(self)} entries, "
                f"{self.hits} hits, {self.misses} misses)")


# -- metrics provider ----------------------------------------------------------
#
# Every live store instance is tracked in a WeakSet so its counters reach
# ``/metricsz`` through the engine provider registry with zero per-call-
# site glue — constructing a store is enough.  Counters are summed per
# tier class (``disk_hits``, ``tiered_misses``, ...).  A collected store
# takes its counts with it, so a diff of two snapshots that spans a
# store's death undercounts by what that store had counted.

_LIVE_STORES: "weakref.WeakSet[ArtifactStore]" = weakref.WeakSet()


def store_counters() -> Dict[str, int]:
    """Metrics provider: per-tier-class counter sums over live stores."""
    totals: Dict[str, int] = {}
    for store in list(_LIVE_STORES):
        prefix = type(store).__name__.lower()
        if prefix.endswith("store"):
            prefix = prefix[:-len("store")] or "store"
        for key, value in store.counters().items():
            # TieredStore nests its front/back counter dicts; those
            # stores are live (and counted) under their own prefixes.
            if isinstance(value, bool) or not isinstance(value, int):
                continue
            name = f"{prefix}_{key}"
            totals[name] = totals.get(name, 0) + value
        name = f"{prefix}_instances"
        totals[name] = totals.get(name, 0) + 1
    return totals


engine_metrics.register_provider("store", store_counters)
