"""Bug injection: golden design -> buggy variant + golden solution record.

The injector applies one random mutation, re-emits canonical source and
derives the golden solution by diffing the two texts.  Candidates whose
edit does not change exactly one line are discarded (the paper's answers
are judged per buggy line, so multi-line edits would have no well-defined
golden record).

Mutations are *not* compile-filtered here — the datagen Stage 2 does that
with the compiler, as in the paper ("we employed the compiler again to
identify and eliminate syntax errors introduced during the random bug
generation process").  ``BugInjector.inject`` optionally emits a share of
deliberately ill-formed mutations to keep that filter exercised.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.bugs.classify import classify_conditionality
from repro.bugs.mutators import MutationCandidate, mutated_copy
from repro.bugs.taxonomy import BugKind, Conditionality
from repro.verilog import ast
from repro.verilog.parser import parse_module
from repro.verilog.writer import write_module


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


# Mutation-family weights.  Chosen so the *kind* marginals of the injected
# population track the paper's Table II (Value ~65%, Op ~29%, Var ~7% of
# SVA-Bug entries): the family is drawn first, then a candidate within it.
_KIND_WEIGHTS = {BugKind.VALUE: 0.64, BugKind.OP: 0.29, BugKind.VAR: 0.07}


class BugInjector:
    """Seeded generator of buggy variants."""

    def __init__(self, rng: Optional[random.Random] = None,
                 max_attempts: int = 25):
        self.rng = rng or random.Random(0)
        self.max_attempts = max_attempts

    def _pick(self, candidates: List[MutationCandidate]
              ) -> Optional[MutationCandidate]:
        by_kind = {}
        for candidate in candidates:
            if candidate.repair_only:
                # Repair-only operators widen the fix space, not the fault
                # space: injecting them would create bugs with no in-space
                # golden fix.
                continue
            by_kind.setdefault(candidate.kind, []).append(candidate)
        if not by_kind:
            return None
        kinds = list(by_kind)
        weights = [_KIND_WEIGHTS[k] for k in kinds]
        kind = self.rng.choices(kinds, weights=weights)[0]
        return self.rng.choice(by_kind[kind])

    def inject(self, golden_source: str,
               design_name: str = "") -> Optional[BugRecord]:
        """One random single-line bug, or None when no candidate applies."""
        module = parse_module(golden_source)
        return self._inject(module, write_module(module), design_name)

    def _inject(self, module: ast.Module, canonical: str,
                design_name: str) -> Optional[BugRecord]:
        """:meth:`inject` on a parsed golden module and its canonical text;
        ``module`` is only read (each attempt mutates a deep copy)."""
        for _ in range(self.max_attempts):
            clone, candidate = mutated_copy(module, self._pick)
            if clone is None or candidate is None:
                return None
            buggy = write_module(clone)
            line = single_line_diff(canonical, buggy)
            if line is None:
                continue
            return self._record(design_name or module.name, canonical, buggy,
                                line, candidate, clone)
        return None

    def inject_many(self, golden_source: str, count: int,
                    design_name: str = "") -> List[BugRecord]:
        """Up to ``count`` *distinct* buggy variants of one design."""
        module = parse_module(golden_source)
        canonical = write_module(module)
        records: List[BugRecord] = []
        seen = set()
        attempts = 0
        while len(records) < count and attempts < count * self.max_attempts:
            attempts += 1
            record = self._inject(module, canonical, design_name)
            if record is None:
                break
            key = (record.line, record.buggy_line)
            if key in seen:
                continue
            seen.add(key)
            records.append(record)
        return records

    def _record(self, design_name: str, canonical: str, buggy: str, line: int,
                candidate: MutationCandidate,
                buggy_module: ast.Module) -> BugRecord:
        buggy_lines = buggy.splitlines()
        golden_lines = canonical.splitlines()
        conditionality = classify_conditionality(buggy_module, candidate.line)
        # The mutated AST node's line refers to the original module's
        # numbering; the diff line in the canonical emission is
        # authoritative for the record.
        return BugRecord(
            design_name=design_name,
            buggy_source=buggy,
            golden_source=canonical,
            line=line,
            buggy_line=buggy_lines[line - 1].strip(),
            fixed_line=golden_lines[line - 1].strip(),
            op_name=candidate.op_name,
            kind=candidate.kind,
            conditionality=conditionality,
            description=candidate.description,
        )
