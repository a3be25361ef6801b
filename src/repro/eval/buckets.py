"""Bucketed analyses for the paper's Fig. 4 and Fig. 5.

Cases are grouped along the Table-II axes — the seven bug types (Direct,
Indirect, Var, Value, Op, Cond, Non_cond) and the five code-length bins —
and :class:`repro.eval.report.EvalReport` computes pass@k per bucket.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.bugs.taxonomy import BUG_TYPE_ORDER, LENGTH_BINS, length_bin_label
from repro.eval.runner import CaseOutcome


def bug_type_buckets(outcomes: Iterable[CaseOutcome]
                     ) -> Dict[str, List[CaseOutcome]]:
    """bug-type name -> outcomes (a case lands in three buckets, one per
    taxonomy axis, exactly as the paper's counts do)."""
    buckets: Dict[str, List[CaseOutcome]] = {name: [] for name in BUG_TYPE_ORDER}
    for outcome in outcomes:
        for label in outcome.case.entry.bucket_labels():
            if label in buckets:
                buckets[label].append(outcome)
    return buckets


def length_buckets(outcomes: Iterable[CaseOutcome]
                   ) -> Dict[str, List[CaseOutcome]]:
    buckets: Dict[str, List[CaseOutcome]] = {
        length_bin_label(b): [] for b in LENGTH_BINS}
    for outcome in outcomes:
        label = length_bin_label(outcome.case.entry.length_bin())
        buckets[label].append(outcome)
    return buckets
