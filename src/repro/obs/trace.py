"""Span-based request tracing with deterministic trace ids.

One request, one trace: a :class:`Span` records where a request spent
its time (queue wait, batch wait, engine map, per-unit solve, the
BMC phases) as ``(name, trace_id, span_id, parent_id, start,
duration, attrs)``.  Three properties make this usable across the whole
serving stack without touching what the stack computes:

- **Deterministic trace ids.**  :func:`trace_id_for` derives the id
  from the request's content key plus its ``request_id`` — the same
  request is the same trace on every host, which is what lets the
  fleet router and a backend agree on an id without coordination
  (propagated on the wire as the ``X-Repro-Trace-Id`` header, see
  :func:`format_trace_header` / :func:`parse_trace_header`).
- **``contextvars`` propagation.**  :func:`span` activates the new
  span as the calling context's current span; children created on the
  same thread (or task) parent themselves automatically, and explicit
  ``parent=`` handles the hops contextvars cannot follow (queue hand-
  offs between threads, pickled work units into process-pool workers).
- **Volatility.**  Tracing is a pure execution concern: span ids and
  timings never enter content keys, digests, fingerprints, or response
  bytes.  Responses are byte-identical with tracing on or off
  (gated by the ``obs`` contract of ``benchmarks/gates.py``).

Spans normally record into the process-global :class:`TraceBuffer`
(served by ``GET /tracez``), which retains the N most recent and the N
slowest finished traces.  Inside an engine work unit the executor
activates :func:`export_spans` instead: spans finished in the worker are
shipped back with the unit's result (they are plain picklable objects)
and :func:`ingest` merges them into the parent's buffer — the same
mechanism that ships worker counter deltas in
:mod:`repro.engine.metrics`.

Span timestamps are ``time.perf_counter()`` readings: comparable across
processes on one host (Linux ``CLOCK_MONOTONIC``), not across hosts.
When the router merges trace fragments from remote backends, offsets
stay correct within each fragment.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import threading
import time
from collections import OrderedDict, deque
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

__all__ = [
    "Span",
    "SpanContext",
    "TraceBuffer",
    "buffer",
    "configure",
    "current",
    "duration_ms",
    "enabled",
    "export_spans",
    "format_trace_header",
    "ingest",
    "merge_trace_records",
    "parse_trace_header",
    "reset",
    "span",
    "trace_id_for",
]

#: The wire header carrying ``trace_id`` or ``trace_id/parent_span_id``.
TRACE_HEADER = "X-Repro-Trace-Id"

_ID_COUNTER = itertools.count(1)


def trace_id_for(content_key: str, request_id: str = "") -> str:
    """Deterministic 32-hex-char trace id for one request.

    Derived from the request's content key *and* its ``request_id``, so
    repeats of the same design by different callers get distinct traces
    while every layer that sees the same request derives the same id.
    """
    digest = hashlib.sha256()
    for part in ("trace", content_key, request_id):
        data = part.encode("utf-8")
        digest.update(str(len(data)).encode("ascii"))
        digest.update(b":")
        digest.update(data)
    return digest.hexdigest()[:32]


def _new_span_id() -> str:
    """Process-unique (and practically fleet-unique) volatile span id."""
    return f"{os.getpid():08x}{next(_ID_COUNTER):08x}"


class SpanContext:
    """The (trace_id, span_id) pair a child span parents to."""

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str):
        self.trace_id = trace_id
        self.span_id = span_id

    def as_tuple(self) -> Tuple[str, str]:
        return (self.trace_id, self.span_id)

    def __repr__(self) -> str:  # pragma: no cover
        return f"SpanContext({self.trace_id}, {self.span_id})"


#: What ``parent=`` accepts: a context, a live span, the picklable
#: ``(trace_id, span_id)`` tuple, or ``None``.
ParentLike = Union[SpanContext, "Span", Tuple[str, str], None]


class Span:
    """One timed operation within a trace.

    Plain data plus an idempotent :meth:`end` — picklable (worker spans
    travel back to the parent process with their unit's result) and
    mutated only by the thread that resolves it.
    """

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "root",
                 "start", "duration", "attrs", "done", "_sink")

    def __init__(self, name: str, trace_id: str,
                 parent_id: Optional[str] = None, root: bool = False,
                 attrs: Optional[Dict[str, object]] = None,
                 start: Optional[float] = None):
        self.name = name
        self.trace_id = trace_id
        self.span_id = _new_span_id()
        self.parent_id = parent_id
        self.root = root
        self.start = time.perf_counter() if start is None else start
        self.duration: Optional[float] = None
        self.attrs: Dict[str, object] = dict(attrs) if attrs else {}
        self.done = False
        self._sink = None  # export list, or None = the global buffer

    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    def context_tuple(self) -> Tuple[str, str]:
        return (self.trace_id, self.span_id)

    def end(self, **attrs) -> None:
        """Close the span (idempotent); extra attrs are merged in."""
        if self.done:
            return
        self.done = True
        if attrs:
            self.attrs.update(attrs)
        if self.duration is None:
            self.duration = time.perf_counter() - self.start
        if self._sink is not None:
            self._sink.append(self)
            self._sink = None
        elif self.root:
            _BUFFER.finish(self.trace_id)

    def __getstate__(self):
        return (self.name, self.trace_id, self.span_id, self.parent_id,
                self.root, self.start, self.duration, self.attrs, self.done)

    def __setstate__(self, state):
        (self.name, self.trace_id, self.span_id, self.parent_id,
         self.root, self.start, self.duration, self.attrs, self.done) = state
        self._sink = None

    def __repr__(self) -> str:  # pragma: no cover
        state = "done" if self.done else "open"
        return f"Span({self.name}, trace={self.trace_id[:8]}, {state})"


# -- context propagation -------------------------------------------------------

_CURRENT: "ContextVar[Optional[SpanContext]]" = ContextVar(
    "repro_current_span", default=None)
_EXPORT: "ContextVar[Optional[List[Span]]]" = ContextVar(
    "repro_span_export", default=None)

_ENABLED = True


def enabled() -> bool:
    return _ENABLED


def current() -> Optional[SpanContext]:
    """The calling context's active span context (or ``None``)."""
    return _CURRENT.get()


def current_tuple() -> Optional[Tuple[str, str]]:
    """Picklable form of :func:`current` for shipping into workers."""
    ctx = _CURRENT.get()
    return ctx.as_tuple() if ctx is not None else None


def _resolve_parent(parent: ParentLike) -> Optional[SpanContext]:
    if parent is None:
        return None
    if isinstance(parent, SpanContext):
        return parent
    if isinstance(parent, Span):
        return parent.context()
    return SpanContext(parent[0], parent[1])


def begin(name: str, parent: ParentLike = None, trace_id: Optional[str] = None,
          root: bool = False,
          attrs: Optional[Dict[str, object]] = None) -> Optional[Span]:
    """Open a span (the caller must :meth:`Span.end` it).

    Returns ``None`` — record nothing — when tracing is disabled or no
    trace can be determined (neither ``trace_id`` nor a parent): code
    running outside any request trace, like a batch datagen run, pays
    only this check.
    """
    if not _ENABLED:
        return None
    ctx = _resolve_parent(parent)
    tid = trace_id or (ctx.trace_id if ctx is not None else None)
    if tid is None:
        return None
    span_obj = Span(name, tid,
                    parent_id=ctx.span_id if ctx is not None else None,
                    root=root, attrs=attrs)
    sink = _EXPORT.get()
    if sink is not None:
        # Worker-side: hold the span until end(), then export it with
        # the unit result instead of touching this process's buffer.
        span_obj._sink = sink
    else:
        _BUFFER.add(span_obj)
    return span_obj


@contextmanager
def span(name: str, parent: ParentLike = None,
         trace_id: Optional[str] = None, root: bool = False,
         attrs: Optional[Dict[str, object]] = None):
    """Context manager: open a span, make it current, end it on exit.

    ``parent=None`` means "the calling context's current span"; pass an
    explicit context (or ``(trace_id, span_id)`` tuple) for cross-thread
    and cross-process hops.  Yields the :class:`Span` (or ``None`` when
    tracing is off / no trace applies — callers need no guard).
    """
    parent = parent if parent is not None else _CURRENT.get()
    span_obj = begin(name, parent=parent, trace_id=trace_id, root=root,
                     attrs=attrs)
    if span_obj is None:
        yield None
        return
    token = _CURRENT.set(span_obj.context())
    try:
        yield span_obj
    finally:
        _CURRENT.reset(token)
        span_obj.end()


def record_phase(phase: str, seconds: float) -> None:
    """Record an already-measured phase as a finished child span.

    The solve hot path reports phase wall time through
    :func:`repro.engine.metrics.add_time`; when a trace is active that
    measurement *also* becomes a ``solve.<phase>`` span (start
    back-dated by the measured duration), so ``/tracez`` shows where a
    slow request's time went without instrumenting the phases twice.
    """
    if not _ENABLED:
        return
    ctx = _CURRENT.get()
    if ctx is None:
        return
    now = time.perf_counter()
    span_obj = Span(f"solve.{phase}", ctx.trace_id, parent_id=ctx.span_id,
                    start=now - seconds)
    span_obj.duration = seconds
    span_obj.done = True
    sink = _EXPORT.get()
    if sink is not None:
        sink.append(span_obj)
    else:
        _BUFFER.add(span_obj)


@contextmanager
def export_spans():
    """Collect spans finished in this context instead of buffering them.

    The engine's unit wrapper runs each work unit inside this, ships the
    collected list back with the unit's result, and the parent calls
    :func:`ingest` — the span twin of the worker counter-delta protocol.
    Yields the (mutating) list.
    """
    spans: List[Span] = []
    token = _EXPORT.set(spans)
    try:
        yield spans
    finally:
        _EXPORT.reset(token)


def ingest(spans: Iterable[Span]) -> None:
    """Merge worker-exported spans into this process's trace buffer."""
    if not _ENABLED:
        return
    for span_obj in spans:
        _BUFFER.add(span_obj)
        if span_obj.root and span_obj.done:
            _BUFFER.finish(span_obj.trace_id)


# -- wire propagation ----------------------------------------------------------


def _is_hex(value: str, lo: int = 8, hi: int = 64) -> bool:
    if not lo <= len(value) <= hi:
        return False
    return all(c in "0123456789abcdef" for c in value)


def format_trace_header(ctx: SpanContext) -> str:
    """``trace_id/span_id`` — what a router injects on a forward."""
    return f"{ctx.trace_id}/{ctx.span_id}"


def parse_trace_header(value: str
                       ) -> Tuple[Optional[str], Optional[SpanContext]]:
    """Parse an ``X-Repro-Trace-Id`` value into (trace_id, parent ctx).

    Accepts ``trace_id`` alone or ``trace_id/parent_span_id``; anything
    malformed yields ``(None, None)`` so the server derives its own id
    instead of propagating garbage.
    """
    if not value or not isinstance(value, str):
        return None, None
    trace_id, _, parent_id = value.strip().partition("/")
    if not _is_hex(trace_id):
        return None, None
    if parent_id:
        if not _is_hex(parent_id, hi=32):  # span ids are 16 hex chars
            return None, None
        return trace_id, SpanContext(trace_id, parent_id)
    return trace_id, None


# -- the bounded trace buffer --------------------------------------------------


class _TraceRecord:
    """One finished trace: the spans, plus the duration it ranked by."""

    __slots__ = ("trace_id", "name", "duration", "spans")

    def __init__(self, trace_id: str, name: str, duration: float,
                 spans: List[Span]):
        self.trace_id = trace_id
        self.name = name
        self.duration = duration
        self.spans = spans

    def render(self) -> Dict[str, object]:
        """JSON form: spans sorted by offset relative to the trace start.

        Rendered lazily (at ``/tracez`` time, not finalization time) so
        spans that were still open when the local root finished — e.g. a
        batch flush that outlives its last member request — show their
        final durations once they close.
        """
        epoch = min(s.start for s in self.spans)
        now = time.perf_counter()
        spans = []
        for s in sorted(self.spans, key=lambda s: (s.start, s.span_id)):
            duration = s.duration if s.duration is not None else now - s.start
            entry: Dict[str, object] = {
                "name": s.name,
                "span_id": s.span_id,
                "parent_id": s.parent_id,
                "offset_ms": round((s.start - epoch) * 1000.0, 3),
                "duration_ms": round(duration * 1000.0, 3),
            }
            if s.attrs:
                entry["attrs"] = dict(s.attrs)
            if s.root:
                entry["root"] = True
            if not s.done:
                entry["in_progress"] = True
            spans.append(entry)
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "duration_ms": round(self.duration * 1000.0, 3),
            "epoch": epoch,
            "spans": spans,
        }


class TraceBuffer:
    """Bounded in-memory retention of finished traces.

    Spans accumulate per trace id while a trace is open (the table is
    capped — a trace that never finishes is evicted, not leaked).  When
    a trace's *local root* span ends — the HTTP server span, or the
    service's inflight span for in-process callers — the trace is
    finalized into two retention sets: the ``max_recent`` most recent
    and the ``max_slowest`` slowest, which is what ``GET /tracez``
    serves.  Late spans for an already-finalized trace open a fresh
    entry and age out via the cap; the router's ``/tracez`` merge
    reassembles fragments by trace id anyway.
    """

    def __init__(self, max_recent: int = 64, max_slowest: int = 64,
                 max_open: int = 512):
        for name, value in (("max_recent", max_recent),
                            ("max_slowest", max_slowest),
                            ("max_open", max_open)):
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 1:
                raise ValueError(
                    f"{name} must be an integer >= 1, got {value!r}")
        self.max_recent = max_recent
        self.max_slowest = max_slowest
        self.max_open = max_open
        self.dropped = 0
        self.finished = 0
        self._open: "OrderedDict[str, List[Span]]" = OrderedDict()
        self._recent: "deque[_TraceRecord]" = deque(maxlen=max_recent)
        self._slowest: List[_TraceRecord] = []  # ascending by duration
        self._lock = threading.Lock()

    def add(self, span_obj: Span) -> None:
        with self._lock:
            bucket = self._open.get(span_obj.trace_id)
            if bucket is None:
                bucket = self._open[span_obj.trace_id] = []
                while len(self._open) > self.max_open:
                    self._open.popitem(last=False)
                    self.dropped += 1
            bucket.append(span_obj)

    def finish(self, trace_id: str) -> None:
        """Finalize ``trace_id``: move its spans into retention."""
        with self._lock:
            spans = self._open.pop(trace_id, None)
            if not spans:
                return
            root = next((s for s in spans if s.root and s.done), None)
            if root is not None:
                name, duration = root.name, root.duration or 0.0
            else:  # pragma: no cover - defensive: finish without a root
                name = spans[0].name
                ends = [s.start + (s.duration or 0.0) for s in spans]
                duration = max(ends) - min(s.start for s in spans)
            record = _TraceRecord(trace_id, name, duration, spans)
            self.finished += 1
            self._recent.append(record)
            # Ascending insert + floor pop keeps the N slowest.
            lo = 0
            for lo, kept in enumerate(self._slowest):  # noqa: B007
                if kept.duration >= record.duration:
                    break
            else:
                lo = len(self._slowest)
            self._slowest.insert(lo, record)
            if len(self._slowest) > self.max_slowest:
                self._slowest.pop(0)

    def snapshot(self) -> Dict[str, object]:
        """The ``/tracez`` payload: recent + slowest finished traces.

        Records sharing a trace id (a trace finalized in fragments, or
        one visible through both a router and its same-process backend)
        are merged, spans deduplicated by span id.
        """
        with self._lock:
            recent = list(self._recent)
            slowest = list(self._slowest)
            open_count = len(self._open)
            dropped = self.dropped
            finished = self.finished
        rendered_recent = merge_trace_records(
            [r.render() for r in recent])
        rendered_slowest = merge_trace_records(
            [r.render() for r in reversed(slowest)])
        return {
            "enabled": _ENABLED,
            "finished": finished,
            "open": open_count,
            "dropped": dropped,
            "recent": rendered_recent,
            "slowest": rendered_slowest,
        }

    def clear(self) -> None:
        with self._lock:
            self._open.clear()
            self._recent.clear()
            self._slowest.clear()
            self.dropped = 0
            self.finished = 0


def _number(value: object) -> Optional[float]:
    """``value`` as a float, or None when it is not a finite number —
    a remote record's non-numeric timing reads as absent."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value) if math.isfinite(value) else None


def duration_ms(record: Dict[str, object]) -> Optional[float]:
    """A rendered trace's ``duration_ms``, None when absent or not a
    number."""
    return _number(record.get("duration_ms"))


def _shift(entry: Dict[str, object], delta_ms: float) -> None:
    if "offset_ms" in entry:
        entry["offset_ms"] = round(entry["offset_ms"] + delta_ms, 3)


def merge_trace_records(records: Sequence[Dict[str, object]]
                        ) -> List[Dict[str, object]]:
    """Merge rendered trace dicts by trace id (order of first sighting).

    Span lists concatenate with span-id dedup; offsets are re-based onto
    the earliest fragment's epoch when both fragments carry comparable
    (same-host) epochs; the merged duration is the max fragment's.  Used
    both by :meth:`TraceBuffer.snapshot` and by the fleet router when it
    folds backend ``/tracez`` payloads into its own.
    """
    merged: "OrderedDict[str, Dict[str, object]]" = OrderedDict()
    seen: Dict[str, set] = {}
    for record in records:
        # Fragments come off other hosts' JSON: a record that is not an
        # object, or spans that are not objects with a string id, are
        # skipped, and a timing that is not a number reads as absent.
        if not isinstance(record, dict):
            continue
        trace_id = record.get("trace_id")
        if not isinstance(trace_id, str):
            continue
        spans = record.get("spans")
        spans = [entry for entry in spans if isinstance(entry, dict)
                 and isinstance(entry.get("span_id"), str)] \
            if isinstance(spans, list) else []
        target = merged.get(trace_id)
        if target is None:
            target = merged[trace_id] = dict(record)
            target["spans"] = []
            seen[trace_id] = set()
            if "duration_ms" in target and duration_ms(target) is None:
                del target["duration_ms"]
        else:
            target["duration_ms"] = max(duration_ms(target) or 0.0,
                                        duration_ms(record) or 0.0)
        ids = seen[trace_id]
        # Re-base this fragment's offsets onto the merged trace's epoch
        # (perf_counter epochs compare only on one host; fragments
        # without one keep their own offsets).
        target_epoch = _number(target.get("epoch"))
        record_epoch = _number(record.get("epoch"))
        shift_ms = 0.0
        if target_epoch is not None and record_epoch is not None:
            if record_epoch < target_epoch:
                delta = (target_epoch - record_epoch) * 1000.0
                for entry in target["spans"]:
                    _shift(entry, delta)
                target["epoch"] = record_epoch
            else:
                shift_ms = (record_epoch - target_epoch) * 1000.0
        for entry in spans:
            span_id = entry.get("span_id")
            if span_id in ids:
                continue
            ids.add(span_id)
            entry = dict(entry)
            if _number(entry.get("offset_ms")) is None:
                entry.pop("offset_ms", None)
            elif shift_ms:
                _shift(entry, shift_ms)
            target["spans"].append(entry)
    for record in merged.values():
        record["spans"].sort(key=lambda e: (e.get("offset_ms", 0.0),
                                            e["span_id"]))
        record["n_spans"] = len(record["spans"])
    return list(merged.values())


_BUFFER = TraceBuffer()


def buffer() -> TraceBuffer:
    """The process-global trace buffer behind ``GET /tracez``."""
    return _BUFFER


def configure(enabled: Optional[bool] = None,
              max_recent: Optional[int] = None,
              max_slowest: Optional[int] = None,
              max_open: Optional[int] = None) -> bool:
    """Reconfigure process-global tracing; returns the *previous*
    enabled flag (so callers can restore it).  Passing any size swaps in
    a fresh, empty buffer."""
    global _ENABLED, _BUFFER
    previous = _ENABLED
    if enabled is not None:
        _ENABLED = bool(enabled)
    if any(value is not None for value in (max_recent, max_slowest,
                                           max_open)):
        _BUFFER = TraceBuffer(
            max_recent=max_recent if max_recent is not None
            else _BUFFER.max_recent,
            max_slowest=max_slowest if max_slowest is not None
            else _BUFFER.max_slowest,
            max_open=max_open if max_open is not None else _BUFFER.max_open)
    return previous


def reset() -> None:
    """Drop every retained trace (tests and benches start clean)."""
    _BUFFER.clear()
