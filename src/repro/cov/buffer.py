"""Bounded per-design retention of coverage reports — ``GET /covz``.

Each :class:`repro.serve.AssertService` records its solved requests'
coverage reports in its own buffer (keyed by design name); the buffer
keeps one merged report per design for the ``max_designs`` most
recently updated designs, the same bounded-retention discipline as
:class:`repro.obs.trace.TraceBuffer`.  The fleet router, which solves
nothing itself, folds its backends' ``/covz`` payloads into one with
:func:`merge_covz_payloads`.

Like tracing, this is a pure execution concern: nothing here enters
content keys, digests or response bytes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional

from repro.cov.collector import merge_reports

__all__ = ["CoverageBuffer", "merge_covz_payloads"]


class CoverageBuffer:
    """Keeps one merged coverage report per design, LRU-bounded.

    ``record`` merges a new report into the design's retained one (counts
    add, covered bits max — see
    :func:`repro.cov.collector.merge_reports`) and refreshes its
    recency; the least recently updated design is evicted past
    ``max_designs``.
    """

    def __init__(self, max_designs: int = 64):
        if not isinstance(max_designs, int) or isinstance(max_designs, bool) \
                or max_designs < 1:
            raise ValueError(
                f"max_designs must be an integer >= 1, got {max_designs!r}")
        self.max_designs = max_designs
        self.dropped = 0
        self.recorded = 0
        self._reports: "OrderedDict[str, Dict[str, object]]" = OrderedDict()
        self._lock = threading.Lock()

    def record(self, report: Dict[str, object]) -> None:
        design = report.get("design")
        if not isinstance(design, str) or not design:
            return
        with self._lock:
            existing = self._reports.pop(design, None)
            if existing is None:
                merged = merge_reports([report])
            else:
                merged = merge_reports([existing, report])
            self._reports[design] = merged
            self.recorded += 1
            while len(self._reports) > self.max_designs:
                self._reports.popitem(last=False)
                self.dropped += 1

    def snapshot(self, limit: Optional[int] = None) -> Dict[str, object]:
        """The ``/covz`` payload: most recently updated designs first."""
        with self._lock:
            designs = [dict(report)
                       for report in reversed(self._reports.values())]
            recorded = self.recorded
            dropped = self.dropped
        if limit is not None and limit >= 0:
            designs = designs[:limit]
        return {
            "designs": designs,
            "dropped": dropped,
            "recorded": recorded,
            "retained": len(designs),
        }

    def clear(self) -> None:
        with self._lock:
            self._reports.clear()
            self.dropped = 0
            self.recorded = 0


def _count(value: object) -> int:
    return value if isinstance(value, int) and not isinstance(value, bool) \
        else 0


def merge_covz_payloads(payloads: List[Dict[str, object]],
                        limit: Optional[int] = None) -> Dict[str, object]:
    """Fold several ``/covz`` payloads (router + backends) into one.

    Reports for the same design merge (counts add, covered bits max);
    ``recorded`` / ``dropped`` sum.  Order is first sighting, so the
    local buffer's recency ordering wins for designs it retains.
    """
    by_design: "OrderedDict[str, Dict[str, object]]" = OrderedDict()
    recorded = 0
    dropped = 0
    for payload in payloads:
        if not isinstance(payload, dict):
            continue
        recorded += _count(payload.get("recorded"))
        dropped += _count(payload.get("dropped"))
        designs = payload.get("designs")
        for report in designs if isinstance(designs, list) else ():
            # Entries come off other hosts' JSON: skip what is not a
            # design's report object.
            design = report.get("design") if isinstance(report, dict) \
                else None
            if not isinstance(design, str):
                continue
            existing = by_design.get(design)
            try:
                by_design[design] = merge_reports(
                    [report] if existing is None else [existing, report])
            except (AttributeError, KeyError, TypeError, ValueError):
                continue  # a report missing its fields: skipped too
    designs = list(by_design.values())
    if limit is not None and limit >= 0:
        designs = designs[:limit]
    return {
        "designs": designs,
        "dropped": dropped,
        "recorded": recorded,
        "retained": len(designs),
    }

