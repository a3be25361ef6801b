"""The execution engine: ordered map over a serial loop or a process pool.

``ExecutionEngine.map`` applies a picklable task function to a list of
work units and returns results **in input order**, whatever the backend:

- ``serial``  — plain loop in the calling process (the reference
  semantics; the process backend must be byte-identical to it);
- ``process`` — ``ProcessPoolExecutor`` (the units are CPU-bound Python,
  so a process pool is the only real parallelism);
- ``auto``    — ``process`` clamped to the CPUs actually available,
  degrading to ``serial`` on a single-core host instead of paying pool
  overhead for nothing.

Because stage units draw only from RNG streams derived per unit (see
:mod:`repro.engine.rng`), scheduling order cannot leak into results.
Every unit call is wrapped with a metrics snapshot so process-local
counters (compile-cache hits, …) surface in the parent, totalled by
:meth:`ExecutionEngine.counter_totals`; see :mod:`repro.engine.metrics`.
"""

from __future__ import annotations

import functools
import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine import metrics
from repro.obs import trace as obs_trace

BACKENDS = ("auto", "serial", "process")


def available_cpus() -> int:
    """CPUs this process may actually use (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _compile_tier():
    """:mod:`repro.verilog.compile`, which owns the compile tier; imported
    at first use because it imports this package."""
    from repro.verilog import compile as verilog_compile

    return verilog_compile


def _warm_noop() -> None:
    """Top-level (hence picklable) no-op used by :meth:`ExecutionEngine.warm`."""


def _call_with_metrics(task: Tuple[Callable, object, object]):
    """Top-level (hence picklable) unit wrapper: run + counter delta + spans.

    ``task`` carries the dispatching map's span context (a picklable
    ``(trace_id, span_id)`` tuple or ``None``); the unit runs inside an
    ``engine.unit`` span under span-export mode, and the spans it
    finishes travel back with the result — the exact protocol the
    counter deltas already use, extended to traces.
    """
    fn, item, trace_ctx = task
    before = metrics.snapshot()
    with obs_trace.export_spans() as spans:
        with obs_trace.span("engine.unit", parent=trace_ctx):
            result = fn(item)
    return result, metrics.delta(before, metrics.snapshot()), spans


class ExecutionEngine:
    """Maps task functions over unit lists with a persistent worker pool."""

    def __init__(self, n_workers: int = 1, backend: str = "auto",
                 compile_store=None, store=None, memo_context: str = "",
                 memo_namespace: str = "stage/v1"):
        """``compile_store`` (a :class:`repro.store.StoreConfig` or
        ``None``) is the persistent tier under the compile cache: the
        engine holds it open (:func:`repro.verilog.compile
        .hold_compile_store`) in this process from construction to
        :meth:`close`, and in every process-pool worker for the pool's
        lifetime.  A memory-only config attaches nothing.

        ``store`` (any :class:`repro.store.ArtifactStore`) enables
        unit-level memoization in :meth:`map`: calls that also pass a
        ``memo_key`` skip units whose results the store already holds.
        ``memo_context`` is the caller's config digest, available to key
        functions via the engine so stored results are only reused for a
        semantically identical configuration.

        A serial engine with no ``compile_store`` holds nothing open, so
        leaving one unclosed (the stage functions' default engine) leaks
        nothing."""
        if backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {backend!r}")
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.requested_backend = backend
        self.requested_workers = n_workers
        if backend == "auto":
            n_workers = min(n_workers, available_cpus())
            backend = "process" if n_workers > 1 else "serial"
        if n_workers <= 1:
            backend = "serial"
        self.backend = backend
        self.n_workers = n_workers
        self.store = store
        self.memo_context = memo_context
        self.memo_namespace = memo_namespace
        self.compile_store = compile_store
        self._pool = None
        self._closed = False
        self._stage_stats: "Dict[str, Dict[str, float]]" = {}
        self._metric_totals: Dict[str, Dict[str, int]] = {}
        self._compile_hold = _compile_tier().hold_compile_store(
            compile_store)

    # -- lifecycle -----------------------------------------------------------

    def _ensure_pool(self):
        if self._closed:
            raise RuntimeError("engine is closed")
        if self.backend == "serial":
            return None
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.n_workers,
                initializer=functools.partial(
                    _compile_tier().hold_compile_store, self.compile_store))
        return self._pool

    def warm(self) -> None:
        """Start the worker pool now instead of lazily at the first map.

        Batch runs don't care, but the serving layer does: without this
        the first request of a cold service pays the whole process-pool
        spawn (plus compile-tier attach) latency.  Executors spawn
        workers lazily on submit, so constructing the pool is not enough
        — a round of no-op tasks forces the spawns (and the attaches)
        before any real work arrives.  No-op for serial backends.
        """
        pool = self._ensure_pool()
        if pool is not None:
            for future in [pool.submit(_warm_noop)
                           for _ in range(self.n_workers)]:
                future.result()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        _compile_tier().release_compile_store(self._compile_hold)
        self._compile_hold = None
        self._closed = True

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- execution -----------------------------------------------------------

    @property
    def parallel(self) -> bool:
        return self.backend != "serial"

    def map(self, fn: Callable, items: Sequence, stage: str,
            memo_key: Optional[Callable] = None) -> List:
        """Apply ``fn`` to every item, preserving input order.

        ``stage`` names the bucket :meth:`stats` reports the call under.
        ``fn`` must be a module-level function and items picklable when
        the backend is ``process``.

        When the engine carries a ``store`` and the caller passes
        ``memo_key`` (item -> content-key string, typically built with
        :func:`repro.store.unit_memo_key` over this engine's
        ``memo_context``), every unit is first looked up in the store's
        ``memo_namespace``; only misses execute, and their results are
        written back — so an identical re-run skips straight to stored
        results.  Memoized unit results must be picklable and non-``None``
        (a stored ``None`` is indistinguishable from a miss).  Store hits
        bypass the unit's metrics snapshot, so worker-side counters (e.g.
        compile-cache stats) only reflect units that actually ran.
        """
        items = list(items)
        started = time.perf_counter()
        # No-op outside a trace (batch datagen): span() yields None when
        # no request trace is ambient, at the cost of one contextvar read.
        with obs_trace.span("engine.map",
                            attrs={"stage": stage, "units": len(items),
                                   "backend": self.backend}) as map_span:
            store = self.store if memo_key is not None else None
            if store is None:
                results = self._execute(fn, items)
                memo_hits = memo_misses = 0
            else:
                keys = [memo_key(item) for item in items]
                results = [store.get(self.memo_namespace, key)
                           for key in keys]
                pending = [i for i, cached in enumerate(results)
                           if cached is None]
                memo_hits = len(items) - len(pending)
                memo_misses = len(pending)
                if pending:
                    computed = self._execute(fn, [items[i] for i in pending])
                    for i, result in zip(pending, computed):
                        store.put(self.memo_namespace, keys[i], result)
                        results[i] = result
                if map_span is not None:
                    map_span.attrs["memo_hits"] = memo_hits
        elapsed = time.perf_counter() - started
        bucket = self._stage_stats.setdefault(
            stage, {"units": 0, "seconds": 0.0,
                    "memo_hits": 0, "memo_misses": 0})
        bucket["units"] += len(items)
        bucket["seconds"] += elapsed
        bucket["memo_hits"] += memo_hits
        bucket["memo_misses"] += memo_misses
        return results

    def _execute(self, fn: Callable, items: List) -> List:
        """The raw ordered map: pool dispatch + metrics/span accumulation."""
        pool = self._ensure_pool()
        trace_ctx = obs_trace.current_tuple()
        tasks = [(fn, item, trace_ctx) for item in items]
        if pool is None:
            rows = [_call_with_metrics(task) for task in tasks]
        else:
            chunksize = max(1, len(tasks) // (self.n_workers * 4))
            rows = list(pool.map(_call_with_metrics, tasks,
                                 chunksize=chunksize))
        results = []
        for result, counter_delta, spans in rows:
            metrics.accumulate(self._metric_totals, counter_delta)
            obs_trace.ingest(spans)
            results.append(result)
        return results

    # -- reporting -----------------------------------------------------------

    def counter_totals(self) -> Dict[str, Dict[str, int]]:
        """Every provider's counters as this engine's work sees them.

        This process's live snapshot; under the process backend, plus
        the per-unit deltas the workers shipped back — the one place
        that rule lives.  Serial units run in this process, so their
        increments are already in the snapshot.  Diff two calls
        for the counts of the work in between (``bundle.stats``), or
        render one (``/metricsz``)."""
        totals = metrics.snapshot()
        if self.backend == "process":
            metrics.accumulate(totals, self._metric_totals)
        return totals

    def stats(self) -> Dict[str, object]:
        return {
            "backend": self.backend,
            "n_workers": self.n_workers,
            "requested_backend": self.requested_backend,
            "requested_workers": self.requested_workers,
            "cpu_count": available_cpus(),
            "stages": {name: {"units": int(s["units"]),
                              "seconds": round(s["seconds"], 6),
                              "memo_hits": int(s.get("memo_hits", 0)),
                              "memo_misses": int(s.get("memo_misses", 0))}
                       for name, s in self._stage_stats.items()},
        }
