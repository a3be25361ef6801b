"""Repair-candidate enumeration: the models' decoding space.

Because the mutation operators are closed under inversion, enumerating all
single-line mutations *of the buggy design* yields a candidate set that
contains the golden fix (the inverse of whatever was injected).  A model's
"answer" is a choice of candidate: ``(line, repaired line text)``.

Enumeration runs every mutation through
:meth:`repro.bugs.mutators.SiteTable.edit` on a single parsed copy: apply,
re-emit the one canonical line the mutated node sits on, compare it with
the golden line, revert — no per-candidate deep copies or whole-item
emissions.  Candidates that leave their line unchanged are skipped;
duplicates (two operators producing the same edit, e.g. ``+1`` and
``^bit0`` on an even constant) are merged, keeping both operator tags.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bugs.mutators import SiteTable
from repro.verilog import ast
from repro.verilog.parser import parse_module


class RepairCandidate:
    """One possible answer: replace ``line`` with ``new_line``."""

    __slots__ = ("line", "old_line", "new_line", "op_names", "kinds",
                 "descriptions")

    def __init__(self, line: int, old_line: str, new_line: str,
                 op_names: List[str], kinds: List[str],
                 descriptions: List[str]):
        self.line = line
        self.old_line = old_line
        self.new_line = new_line
        self.op_names = op_names
        self.kinds = kinds
        self.descriptions = descriptions

    @property
    def key(self):
        return (self.line, self.new_line)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"RepairCandidate(line={self.line}, "
                f"{self.old_line!r} -> {self.new_line!r})")


class CandidateSpace:
    """All repair candidates of one buggy source, with lookup helpers."""

    def __init__(self, source: str, candidates: List[RepairCandidate]):
        self.source = source
        self.candidates = candidates
        self._by_key: Dict[tuple, RepairCandidate] = {
            c.key: c for c in candidates}

    def __len__(self) -> int:
        return len(self.candidates)

    def __iter__(self):
        return iter(self.candidates)

    def find(self, line: int, new_line: str) -> Optional[RepairCandidate]:
        return self._by_key.get((line, " ".join(new_line.split())))

    def golden_index(self, line: int, fixed_line: str) -> Optional[int]:
        """Index of the golden candidate, or None when out of space."""
        target = (line, " ".join(fixed_line.split()))
        for i, candidate in enumerate(self.candidates):
            if candidate.key == target:
                return i
        return None


def enumerate_repairs(buggy_source: str,
                      module: Optional[ast.Module] = None) -> CandidateSpace:
    """Build the candidate space for ``buggy_source``.

    ``module`` may be supplied to skip re-parsing (it will be mutated and
    restored in place).  Every candidate goes through the site table's
    one-line apply / emit / revert engine, the same one bug injection
    uses.
    """
    table = SiteTable(module if module is not None
                      else parse_module(buggy_source))
    merged: Dict[tuple, RepairCandidate] = {}
    for mutation in table.candidates:
        edit = table.edit(mutation)
        if edit is None:
            continue
        new_line = " ".join(edit.edited_line.split())
        key = (edit.line, new_line)
        existing = merged.get(key)
        if existing is not None:
            if mutation.op_name not in existing.op_names:
                existing.op_names.append(mutation.op_name)
                existing.kinds.append(mutation.kind.value)
                existing.descriptions.append(mutation.description)
        else:
            merged[key] = RepairCandidate(
                edit.line, " ".join(edit.golden_line.split()), new_line,
                [mutation.op_name], [mutation.kind.value],
                [mutation.description])
    ordered = sorted(merged.values(), key=lambda c: (c.line, c.new_line))
    return CandidateSpace(table.canonical, ordered)
