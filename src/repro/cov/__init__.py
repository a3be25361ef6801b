"""Coverage & assertion-quality telemetry (see :mod:`repro.cov.collector`).

Public surface:

- :class:`CoverageSink` — per-design collector both simulator tiers feed
  byte-identically; attach as ``simulator.cov``.
- :func:`merge_reports` / :func:`accumulate_totals` /
  :func:`coverage_counters` — report aggregation and the ``coverage``
  provider of the engine counter-delta protocol.
- :class:`CoverageBuffer` (one per service) and
  :func:`merge_covz_payloads` — the bounded retention behind
  ``GET /covz`` and its fleet-wide merge.
- :func:`new_quality` / ``QUALITY_KEYS`` — the per-assertion quality
  counter record the SVA monitor fills in.
"""

from repro.cov.buffer import (
    CoverageBuffer,
    merge_covz_payloads,
)
from repro.cov.collector import (
    QUALITY_KEYS,
    CoverageSink,
    accumulate_totals,
    coverage_counters,
    merge_reports,
    new_quality,
)

__all__ = [
    "QUALITY_KEYS",
    "CoverageBuffer",
    "CoverageSink",
    "accumulate_totals",
    "coverage_counters",
    "merge_covz_payloads",
    "merge_reports",
    "new_quality",
]
