"""Bug injection: golden design -> buggy variant + golden solution record.

The injector enumerates a golden's mutation sites once
(:class:`~repro.bugs.mutators.SiteTable`); each attempt applies one random
candidate in place, re-emits the one canonical line it edits, compares it
with the golden line and reverts.  Candidates whose edit leaves the line
unchanged are discarded (the paper's answers are judged per buggy line,
so every record needs exactly one changed line).

Mutations are *not* compile-filtered here — the datagen Stage 2 does that
with the compiler, as in the paper ("we employed the compiler again to
identify and eliminate syntax errors introduced during the random bug
generation process").
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.bugs.classify import classify_conditionality
from repro.bugs.mutators import MutationCandidate, SiteTable
from repro.bugs.taxonomy import BugKind, Conditionality
from repro.verilog.parser import parse_module


class BugRecord:
    """A buggy variant plus everything needed to judge a repair.

    Attributes
    ----------
    buggy_source / golden_source: canonical texts.
    line:        1-based buggy line number in ``buggy_source``.
    buggy_line / fixed_line: stripped text of the differing line.
    op_name:     mutation operator family.
    kind:        Table-I structural kind (Var / Value / Op).
    conditionality: Cond / Non_cond (relation needs the assertion and is
                 attached later, in Stage 2).
    """

    __slots__ = ("design_name", "buggy_source", "golden_source", "line",
                 "buggy_line", "fixed_line", "op_name", "kind",
                 "conditionality", "description")

    def __init__(self, design_name: str, buggy_source: str, golden_source: str,
                 line: int, buggy_line: str, fixed_line: str, op_name: str,
                 kind: BugKind, conditionality: Conditionality,
                 description: str):
        self.design_name = design_name
        self.buggy_source = buggy_source
        self.golden_source = golden_source
        self.line = line
        self.buggy_line = buggy_line
        self.fixed_line = fixed_line
        self.op_name = op_name
        self.kind = kind
        self.conditionality = conditionality
        self.description = description

    def __repr__(self) -> str:  # pragma: no cover
        return (f"BugRecord({self.design_name}:{self.line} "
                f"{self.op_name} [{self.kind}] "
                f"{self.buggy_line!r} <- {self.fixed_line!r})")


def single_line_diff(golden: str, buggy: str) -> Optional[int]:
    """1-based line number of the single differing line, or None."""
    golden_lines = golden.splitlines()
    buggy_lines = buggy.splitlines()
    if len(golden_lines) != len(buggy_lines):
        return None
    diffs = [i for i, (g, b) in enumerate(zip(golden_lines, buggy_lines))
             if g != b]
    if len(diffs) != 1:
        return None
    return diffs[0] + 1


class BugInjector:
    """Seeded generator of buggy variants."""

    def __init__(self, rng: Optional[random.Random] = None,
                 max_attempts: int = 25):
        self.rng = rng or random.Random(0)
        self.max_attempts = max_attempts

    def _pick(self, table: SiteTable) -> Optional[MutationCandidate]:
        """Draw a kind by weight, then a fault candidate of that kind."""
        if not table.fault_kinds:
            return None
        kind = self.rng.choices(table.fault_kinds,
                                weights=table.fault_weights)[0]
        return self.rng.choice(table.faults_by_kind[kind])

    def inject(self, golden_source: str,
               design_name: str = "") -> Optional[BugRecord]:
        """One random single-line bug, or None when no candidate applies."""
        return self._inject(SiteTable(parse_module(golden_source)),
                            design_name)

    def _inject(self, table: SiteTable,
                design_name: str) -> Optional[BugRecord]:
        """:meth:`inject` over a golden's site table; each attempt applies,
        emits and reverts in place, so the table's module is unchanged."""
        for _ in range(self.max_attempts):
            candidate = self._pick(table)
            if candidate is None:
                return None
            edit = table.edit(candidate, probe=classify_conditionality)
            if edit is None:
                continue
            buggy_lines = table.lines[:]
            buggy_lines[edit.line - 1] = edit.edited_line
            # The mutated AST node's line refers to the parsed golden's
            # numbering; the diff line in the canonical emission is
            # authoritative for the record.
            return BugRecord(
                design_name=design_name or table.module.name,
                buggy_source="\n".join(buggy_lines) + "\n",
                golden_source=table.canonical,
                line=edit.line,
                buggy_line=edit.edited_line.strip(),
                fixed_line=edit.golden_line.strip(),
                op_name=candidate.op_name,
                kind=candidate.kind,
                conditionality=edit.probed,
                description=candidate.description,
            )
        return None

    def inject_many(self, golden_source: str, count: int,
                    design_name: str = "") -> List[BugRecord]:
        """Up to ``count`` *distinct* buggy variants of one design."""
        table = SiteTable(parse_module(golden_source))
        records: List[BugRecord] = []
        seen = set()
        attempts = 0
        while len(records) < count and attempts < count * self.max_attempts:
            attempts += 1
            record = self._inject(table, design_name)
            if record is None:
                break
            key = (record.line, record.buggy_line)
            if key in seen:
                continue
            seen.add(key)
            records.append(record)
        return records
