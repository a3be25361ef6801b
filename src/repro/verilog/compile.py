"""One-call compiler frontend — the Icarus Verilog substitute.

``compile_source`` runs lex -> parse -> elaborate and returns a
:class:`CompileResult` carrying the pass/fail verdict, diagnostics, the AST
and the elaborated design.  The datagen pipeline treats ``result.ok`` like
the exit status of ``iverilog`` and ``result.failure_summary()`` like its
stderr.

Compilation is pure, so results are memoized in a process-local
:class:`CompileCache` keyed by a content hash of the source text: the same
golden source used to be recompiled by the corpus generator, Stage 1, the
SVA insertion path, the bug-mutant syntax check and the semantic
re-verification in eval.  Cached :class:`CompileResult` objects are shared
— treat them as immutable.  Hit/miss counters are exported through
:mod:`repro.engine.metrics` so worker-pool runs can aggregate them into
``DatasetBundle.stats``.  The cache has no knobs; its optional disk tier
is attached by :func:`hold_compile_store` holds, which
:class:`repro.engine.ExecutionEngine` alone takes.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Dict, List, Optional, Tuple

from repro.engine import metrics
from repro.store.base import NS_COMPILE
from repro.store.disk import DiskStore
from repro.store.lru import StoreBackedLRU
from repro.verilog import ast
from repro.verilog.elaborator import Design, elaborate
from repro.verilog.errors import Diagnostic, VerilogError
from repro.verilog.parser import parse_source

#: Entries the process-wide compile cache keeps in memory.
CACHE_ENTRIES = 4096


class CompileResult:
    """Outcome of compiling one source string.

    ``content_key`` is the SHA-256 content hash of the source — the same
    key the :class:`CompileCache` files the result under.  Downstream
    caches (notably the compiled-simulation program cache in
    :mod:`repro.sim.compiled`, which keys on the shared ``design``
    instance this result carries) use it to report which content a cached
    artifact belongs to.  Class-level default keeps results unpickled
    from older disk stores working.
    """

    content_key: Optional[str] = None

    def __init__(self, source_text: str):
        self.source_text = source_text
        self.ok = False
        self.source: Optional[ast.Source] = None
        self.design: Optional[Design] = None
        self.diagnostics: List[Diagnostic] = []
        self.content_key = CompileCache.key(source_text)

    @property
    def module(self) -> Optional[ast.Module]:
        if self.source and self.source.modules:
            return self.source.modules[0]
        return None

    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.is_error()]

    def failure_summary(self) -> str:
        """Compiler-style multi-line error report (empty when ok)."""
        return "\n".join(repr(d) for d in self.errors())

    def __repr__(self) -> str:  # pragma: no cover
        status = "ok" if self.ok else f"{len(self.errors())} error(s)"
        return f"CompileResult({status})"


class CompileCache(StoreBackedLRU):
    """Content-hash LRU memoization of :func:`compile_source`.

    Thread-safe; failures are cached too (a source that does not compile
    never will).  Counters are monotonic so deltas between snapshots are
    meaningful.

    An optional ``store`` (any :class:`repro.store.ArtifactStore`) is the
    persistent backing tier: a memory miss consults it before compiling,
    and every fresh compile is written through, so compile artifacts
    survive across runs and are shared by process-pool workers pointed at
    the same store directory (see :class:`repro.store.lru.StoreBackedLRU`
    for the counter invariants).
    """

    def __init__(self, max_entries: int = CACHE_ENTRIES, store=None):
        super().__init__(max_entries, store, NS_COMPILE)

    @staticmethod
    def key(source_text: str) -> str:
        return hashlib.sha256(source_text.encode("utf-8")).hexdigest()

    def get_or_compile(self, source_text: str) -> CompileResult:
        key = self.key(source_text)
        result = self.get(key)
        if result is None:
            result = _compile_uncached(source_text)
            self.put(key, result)
        return result


_DEFAULT_CACHE = CompileCache()
#: The open holds on the persistent compile tier (see
#: :func:`hold_compile_store`); the newest one's tier is attached.
_HOLDS: List["_Hold"] = []
_HOLDS_LOCK = threading.Lock()
_TIER: Optional[Tuple[str, int]] = None  # the attached tier, if any
#: Counter totals of the caches a tier change replaced, so that
#: :func:`compile_cache_counters` only goes up over the process's life.
_RETIRED: Dict[str, int] = {}


class _Hold:
    """One owner's claim on a compile tier: ``(disk root, max_bytes)``."""

    __slots__ = ("tier",)

    def __init__(self, tier: Tuple[str, int]):
        self.tier = tier


def default_compile_cache() -> CompileCache:
    return _DEFAULT_CACHE


def _retier_locked() -> None:
    """Start a fresh cache when the newest open hold's tier is not the
    attached one (no hold: no store), carrying its counters over."""
    global _DEFAULT_CACHE, _TIER
    tier = _HOLDS[-1].tier if _HOLDS else None
    if tier != _TIER:
        _TIER = tier
        for name, value in _DEFAULT_CACHE.counters().items():
            _RETIRED[name] = _RETIRED.get(name, 0) + value
        _DEFAULT_CACHE = CompileCache(
            store=None if tier is None else DiskStore(*tier))


def hold_compile_store(store) -> Optional[_Hold]:
    """Attach the disk tier of ``store`` (a :class:`repro.store.StoreConfig`)
    under this process's compile cache until the hold is released.

    Holds may overlap in any order: the tier stays attached while any
    hold is open (the newest open hold's tier wins), and the process
    returns to "no store" when the last one is released.  ``None`` or a
    memory-only config holds nothing and returns ``None``.
    :class:`repro.engine.ExecutionEngine` is the one owner that calls
    this, for its own process and in each pool worker.
    """
    path = store.store_path() if store is not None else ""
    if not path:
        return None
    hold = _Hold((path, store.max_bytes))
    with _HOLDS_LOCK:
        _HOLDS.append(hold)
        _retier_locked()
    return hold


def release_compile_store(hold: Optional[_Hold]) -> None:
    """Release a :func:`hold_compile_store` hold (``None`` is a no-op)."""
    if hold is None:
        return
    with _HOLDS_LOCK:
        _HOLDS.remove(hold)
        _retier_locked()


def compile_cache_counters() -> Dict[str, int]:
    """Metrics provider: this process's compile cache counters, totalled
    over every cache a tier change replaced, so they never go down."""
    with _HOLDS_LOCK:
        return {name: value + _RETIRED.get(name, 0)
                for name, value in _DEFAULT_CACHE.counters().items()}


metrics.register_provider("compile_cache", compile_cache_counters)


def _compile_uncached(source_text: str) -> CompileResult:
    result = CompileResult(source_text)
    try:
        result.source = parse_source(source_text)
    except VerilogError as exc:
        result.diagnostics.append(Diagnostic(Diagnostic.ERROR, exc.message, exc.line))
        return result
    if len(result.source.modules) != 1:
        result.diagnostics.append(Diagnostic(
            Diagnostic.ERROR,
            f"expected exactly one module, found {len(result.source.modules)}",
            result.source.modules[0].line if result.source.modules else 1))
        # Still try to elaborate the first module for diagnostics.
    module = result.source.modules[0]
    design = elaborate(module, strict=False)
    result.design = design
    result.diagnostics.extend(design.diagnostics)
    result.ok = not any(d.is_error() for d in result.diagnostics)
    return result


def compile_source(source_text: str, use_cache: bool = True) -> CompileResult:
    """Compile Verilog source text.

    Never raises for source-level problems; syntax and semantic failures are
    reported through ``result.ok`` / ``result.diagnostics`` so the pipeline
    can harvest failing samples for the Verilog-PT dataset exactly as the
    paper keeps non-compiling code for pretraining.

    Results are memoized in the process-wide :class:`CompileCache` unless
    ``use_cache=False`` (the uncached reference); cached results are
    shared objects and must not be mutated.
    """
    if use_cache:
        return _DEFAULT_CACHE.get_or_compile(source_text)
    return _compile_uncached(source_text)
