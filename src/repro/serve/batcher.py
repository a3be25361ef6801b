"""Micro-batching: coalesce queued requests into engine work units.

A :class:`MicroBatcher` owns one consumer thread over the service's
bounded request queue.  It blocks for the first item, which opens a
batch, and takes everything already queued behind it without blocking.
Then the traffic decides, not a fixed wait:

- ``max_batch`` items in hand: a **size** flush;
- the queue is empty and the arrivals seen so far predict no other one
  inside the window, or the one they predicted is overdue: an **idle**
  flush;
- they do predict one: the batcher waits for it, and flushes as
  **timeout** if ``window_s`` runs out since the batch opened;
- the stop sentinel arrives: a **drain** flush of what is in hand.

The prediction is an exponentially weighted moving average of the gaps
between the items the batcher takes (weight :data:`GAP_SMOOTHING` on the
newest gap).  A gap counts only the time the batcher spent listening
for the item: items that queued up during a flush are taken at once and
say nothing about gaps.  With the queue empty, the batcher flushes at
once if the average gap is no shorter than the window; otherwise it
waits :data:`PATIENCE` average gaps for the next arrival, never past the
window.  So the requests of a wave, such as concurrent clients that
resubmit after each flush, keep the batch open and share it, while a
lone request after an idle spell, or the two clients of a closed loop
once both have arrived, flush without waiting for a partner that will
not come.  The wait is what the ``http`` gate contract needs: there its
16 clients' resubmissions reach the queue spread over milliseconds, and
flushing only what is already queued split them into small batches that
made more solves and raised the HTTP p50 by about half.  The average
forgets slowly: after a quiet spell of about four windows it is no
shorter than the window, so the first batch of a burst that then
arrives takes only what is queued, and the rest of the burst queues
behind that flush and goes together.  Until the batcher has waited for
an item once, it holds the whole window.  ``window_s`` is thus an upper
bound on the time any item waits in the batcher, never a fixed cost.

Each flush goes to the service's flush callable, which dedups the batch
by content hash and runs one :meth:`ExecutionEngine.map` over the unique
work units.  Throughput therefore *rises* with concurrency (duplicate
in-flight requests collapse, unique ones fan out across the worker pool)
instead of degrading.

The flush callable must not raise; the batcher still guards it so a bug
in one batch cannot kill the consumer thread and deadlock every later
request.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.obs import trace as obs_trace

#: Why a batch closed, in stats order: the one table behind
#: ``BatcherStats.flush_reasons``, the ``ServiceStats.flush_<reason>``
#: fields and the ``repro_service_batch_flushes_total{reason=}`` family.
FLUSH_REASONS = ("size", "timeout", "drain", "idle")
FLUSH_SIZE, FLUSH_TIMEOUT, FLUSH_DRAIN, FLUSH_IDLE = FLUSH_REASONS

#: Weight of the newest gap in the arrival-gap EWMA.
GAP_SMOOTHING = 0.25

#: How many EWMA gaps past the last take the batcher waits for the next
#: arrival before it reads the burst as over.
PATIENCE = 2.0

_STOP = object()  # queue sentinel: drain what is queued ahead, then exit


@dataclass
class BatcherStats:
    """Consumer-thread counters (single writer; readers take snapshots)."""

    batches: int = 0
    items: int = 0
    max_batch: int = 0
    flush_errors: int = 0
    flush_reasons: dict = field(
        default_factory=lambda: dict.fromkeys(FLUSH_REASONS, 0))

    @property
    def mean_batch(self) -> float:
        return self.items / self.batches if self.batches else 0.0


class MicroBatcher:
    """Queue consumer that flushes coalesced batches via a callback."""

    def __init__(self, source: "queue.Queue", flush: Callable[[List, str], None],
                 max_batch: int = 16, window_s: float = 0.010,
                 name: str = "serve-batcher"):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if window_s < 0:
            raise ValueError(f"window_s must be >= 0, got {window_s}")
        self._source = source
        self._flush = flush
        self.max_batch = max_batch
        self.window_s = window_s
        self.stats = BatcherStats()
        # Arrival model (consumer thread only): since when the batcher
        # has been listening for an arrival (its last take or the end of
        # its last flush), and the EWMA of the gaps it listened for
        # (None until it has waited for an item once).
        self._listening: Optional[float] = None
        self._gap: Optional[float] = None
        self._thread: Optional[threading.Thread] = None
        self._stop_sent = False
        self._name = name

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "MicroBatcher":
        if self._thread is not None:
            raise RuntimeError("batcher already started")
        self._thread = threading.Thread(target=self._run, name=self._name,
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self, timeout: Optional[float] = None) -> None:
        """Drain everything already queued, then stop the thread.

        The sentinel enters the FIFO behind every pending request, so no
        accepted request is dropped.
        """
        if self._thread is None:
            return
        if not self._stop_sent:
            self._stop_sent = True
            self._source.put(_STOP)  # blocks if full; the consumer makes room
        self._thread.join(timeout)
        if self._thread.is_alive():
            # Timed-out join: keep the handle so `running` stays truthful
            # and a later stop() can join again without re-sending the
            # sentinel.
            return
        self._thread = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # -- consumer loop -------------------------------------------------------

    def _run(self) -> None:
        while True:
            item, waited = self._next(None)
            if item is _STOP:
                return
            opened = self._took(waited)
            batch = [item]
            reason = self._fill(batch, opened + self.window_s)
            self.stats.batches += 1
            self.stats.items += len(batch)
            self.stats.max_batch = max(self.stats.max_batch, len(batch))
            self.stats.flush_reasons[reason] += 1
            # Per-flush span, parented to the first traced member's
            # inflight span (duck-typed: the batcher stays generic over
            # queue items).  Making it the consumer thread's ambient span
            # is what parents the flush's engine.map span into a trace.
            trace_parent = next(
                (span for span in (getattr(item, "span", None)
                                   for item in batch) if span is not None),
                None)
            try:
                with obs_trace.span("batch.flush", parent=trace_parent,
                                    attrs={"size": len(batch),
                                           "reason": reason}):
                    self._flush(batch, reason)
            except BaseException:  # noqa: BLE001 - must not kill the consumer
                self.stats.flush_errors += 1
            if reason == FLUSH_DRAIN:
                return
            # Arrivals during the flush queue up and are taken at once;
            # only time spent listening counts toward a gap.
            self._listening = time.monotonic()

    def _fill(self, batch: List, deadline: float) -> str:
        """Take items into ``batch`` until it must close; returns why."""
        while len(batch) < self.max_batch:
            until = self._hold_until(deadline)
            item, waited = self._next(until)
            if item is None:
                return FLUSH_TIMEOUT if until >= deadline else FLUSH_IDLE
            if item is _STOP:
                return FLUSH_DRAIN
            self._took(waited)
            batch.append(item)
        return FLUSH_SIZE

    def _next(self, until: Optional[float]) -> Tuple[object, bool]:
        """The next item, and whether the batcher waited for it: a queued
        item at once, else the first arrival before ``until`` (unbounded
        if None), else ``(None, ...)``."""
        try:
            return self._source.get_nowait(), False
        except queue.Empty:
            pass
        timeout = None if until is None else until - time.monotonic()
        if timeout is not None and timeout <= 0:
            return None, False
        try:
            return self._source.get(timeout=timeout), True
        except queue.Empty:
            return None, True

    def _took(self, waited: bool) -> float:
        """Note a take and return its time.  An item the batcher waited
        for folds the gap it listened for into the EWMA; a queued one
        tells nothing about gaps."""
        now = time.monotonic()
        if waited and self._listening is not None:
            gap = now - self._listening
            self._gap = (gap if self._gap is None
                         else self._gap + GAP_SMOOTHING * (gap - self._gap))
        self._listening = now
        return now

    def _hold_until(self, deadline: float) -> float:
        """Until when to wait for another arrival: the whole window while
        no gap has been seen; not at all when the average gap is no
        shorter than the window; else ``PATIENCE`` gaps past the last
        take, and never past ``deadline``."""
        if self._gap is None:
            return deadline
        if self._gap >= self.window_s:
            return self._listening
        return min(deadline, self._listening + PATIENCE * self._gap)
