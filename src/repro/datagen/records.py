"""Dataset entry types for the three generated datasets and the benchmark.

Field names follow the paper's Fig. 2: Verilog-PT entries are plain text
for next-token pretraining; Verilog-Bug and SVA-Bug entries are
question/answer pairs; SVA-Eval cases add the golden solution and the
bucketing labels used by the evaluation figures.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bugs.injector import BugRecord
from repro.bugs.taxonomy import (
    Relation,
    length_bin_label,
    length_bin_of,
)


class VerilogPTEntry:
    """One pretraining text: code + spec (+ failure analysis when the code
    does not compile)."""

    __slots__ = ("source", "spec", "analysis", "compiles", "break_kind")

    def __init__(self, source: str, spec: str, analysis: str = "",
                 compiles: bool = True, break_kind: str = ""):
        self.source = source
        self.spec = spec
        self.analysis = analysis
        self.compiles = compiles
        self.break_kind = break_kind

    def text(self) -> str:
        parts = [self.source, "", self.spec]
        if self.analysis:
            parts += ["", "Failure analysis:", self.analysis]
        return "\n".join(parts)


class VerilogBugEntry:
    """A functional bug that fired no assertion (auxiliary SFT task)."""

    __slots__ = ("record", "spec")

    def __init__(self, record: BugRecord, spec: str):
        self.record = record
        self.spec = spec

    def question_text(self) -> str:
        return (f"There is a Verilog design that contains a bug.\n"
                f"{self.record.buggy_source}\n"
                f"The specification is:\n{self.spec}\n"
                f"Please give me a solution.")

    def answer_text(self) -> str:
        return (f"Buggy line {self.record.line}: {self.record.buggy_line}\n"
                f"Fix: {self.record.fixed_line}")


class SvaBugEntry:
    """A bug + SVA pair that triggers an assertion failure (the core task).

    ``relation`` is derived from the first failing assertion; ``cot`` is
    present only when Stage 3 validated the chain, in which case the
    question carries the 'step by step' marker, exactly as in the paper.
    """

    __slots__ = ("record", "spec", "buggy_source_with_sva", "logs",
                 "failing_labels", "relation", "cot", "assertion_signals")

    def __init__(self, record: BugRecord, spec: str, buggy_source_with_sva: str,
                 logs: str, failing_labels: List[str], relation: Relation,
                 assertion_signals: List[str], cot: Optional[str] = None):
        self.record = record
        self.spec = spec
        self.buggy_source_with_sva = buggy_source_with_sva
        self.logs = logs
        self.failing_labels = failing_labels
        self.relation = relation
        self.assertion_signals = assertion_signals
        self.cot = cot

    @property
    def step_by_step(self) -> bool:
        return self.cot is not None

    def question_text(self) -> str:
        suffix = " (step by step)" if self.step_by_step else ""
        return (f"There is a buggy SystemVerilog design that triggers "
                f"assertions.\n{self.buggy_source_with_sva}\n"
                f"Simulation logs:\n{self.logs}\n"
                f"The specification is:\n{self.spec}\n"
                f"Please give me a solution{suffix}.")

    def answer_text(self) -> str:
        answer = (f"Buggy line {self.record.line}: {self.record.buggy_line}\n"
                  f"Fix: {self.record.fixed_line}")
        if self.cot:
            answer += f"\n\nReasoning:\n{self.cot}"
        return answer

    # -- bucketing ----------------------------------------------------------

    @property
    def line_count(self) -> int:
        return self.record.buggy_source.count("\n")

    def length_bin(self):
        return length_bin_of(self.line_count)

    def bucket_labels(self) -> List[str]:
        """All Table-II bucket names this entry belongs to (one per axis)."""
        return [self.relation.value, self.record.kind.value,
                self.record.conditionality.value]


class SvaEvalCase:
    """One benchmark case (machine- or human-origin)."""

    __slots__ = ("case_id", "entry", "origin")

    def __init__(self, case_id: str, entry: SvaBugEntry, origin: str):
        if origin not in ("machine", "human"):
            raise ValueError(f"origin must be machine|human, got {origin!r}")
        self.case_id = case_id
        self.entry = entry
        self.origin = origin

    @property
    def record(self) -> BugRecord:
        return self.entry.record


def distribution_table(entries: List[SvaBugEntry]) -> Dict[str, int]:
    """Table-II style marginal counts (length bins + all seven bug types)."""
    counts: Dict[str, int] = {}
    for entry in entries:
        bin_name = length_bin_label(entry.length_bin())
        counts[bin_name] = counts.get(bin_name, 0) + 1
        for label in entry.bucket_labels():
            counts[label] = counts.get(label, 0) + 1
    return counts
