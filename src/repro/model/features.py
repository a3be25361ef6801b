"""Feature extraction for repair-candidate ranking.

The extractor sees exactly what the paper's model sees at inference time —
the question: buggy SV code (with its SVAs), simulation logs, and the spec.
Everything else is derived:

- failing assertion labels are parsed from the log lines;
- the assertion's fan-in cone (via :class:`repro.verilog.analysis.DefUse`)
  gives the localization features;
- the pretrained n-gram LM gives per-line surprisal (the PT stage's
  contribution);
- literal-consistency compares a line's numeric literals against the rest
  of the module and the spec (a mutated constant usually appears nowhere
  else; the restored one usually does).
"""

from __future__ import annotations

import re
from itertools import chain
from typing import Dict, Iterator, List, Optional, Set

import numpy as np

from repro.bugs.classify import assertion_expr_signals
from repro.model.candidates import RepairCandidate
from repro.model.ngram_lm import NgramLM
from repro.verilog.analysis import DefUse
from repro.verilog.parser import parse_module

_LOG_RE = re.compile(r"failed assertion\s+[\w$]+\.([\w$]+)")
_LITERAL_RE = re.compile(r"\d+'[sS]?[bdohBDOH][0-9a-fA-F_]+|\b\d+\b")

OP_NAMES = ["op_swap", "negate_cond", "const_nudge", "const_bitflip",
            "ident_swap", "ternary_swap", "concat_swap", "const_set",
            "rhs_swap"]

FEATURE_NAMES = [
    "bias",
    "in_cone",
    "drives_assert_signal",
    "cone_depth_score",
    "lm_old_surprisal",
    "lm_delta",
    "lit_consistency_delta",
    "is_cond_line",
    "line_pos",
    "case_label_integrity_delta",
    "fix_trivial_const",
    "fix_cone_refs_delta",
] + [f"op_{name}" for name in OP_NAMES]

DIM = len(FEATURE_NAMES)


def parse_failing_labels(logs: str) -> List[str]:
    """Assertion labels mentioned in the failure log."""
    labels: List[str] = []
    for match in _LOG_RE.finditer(logs):
        label = match.group(1)
        if label not in labels:
            labels.append(label)
    return labels


class CaseContext:
    """Per-case precomputation shared by all candidates."""

    def __init__(self, buggy_source_with_sva: str, spec: str, logs: str,
                 lm: Optional[NgramLM] = None):
        self.source = buggy_source_with_sva
        self.spec = spec
        self.logs = logs
        self.lm = lm
        self.module = parse_module(buggy_source_with_sva)
        self.defuse = DefUse(self.module)

        self.labels = parse_failing_labels(logs)
        signals: List[str] = []
        for label in self.labels:
            for name in assertion_expr_signals(self.module, label):
                if name not in signals:
                    signals.append(name)
        self.assert_signals = signals

        self.cone = self.defuse.fanin_cone(signals) if signals else set()
        self.cone_lines = (self.defuse.cone_lines(signals)
                           if signals else set())
        self.depths = self._signal_depths(signals)

        self.lines = buggy_source_with_sva.splitlines()
        self.n_lines = max(len(self.lines), 1)
        self._surprisal_cache: Dict[str, float] = {}
        self._module_literal_counts = self._count_literals()
        self._targets_by_line = self._build_targets_by_line()
        self._case_labels_by_line = self._build_case_label_map()
        self._mean_surprisal = self._module_mean_surprisal()

    # -- helpers -----------------------------------------------------------

    def _signal_depths(self, roots: List[str]) -> Dict[str, int]:
        depths = {name: 0 for name in roots}
        frontier = list(roots)
        for depth in range(1, 8):
            new = []
            for name in frontier:
                for driver in self.defuse.drivers.get(name, ()):
                    if driver not in depths:
                        depths[driver] = depth
                        new.append(driver)
            if not new:
                break
            frontier = new
        return depths

    def _count_literals(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for text in (self.source, self.spec):
            for match in _LITERAL_RE.finditer(text):
                counts[match.group()] = counts.get(match.group(), 0) + 1
        return counts

    def surprisal(self, line: str) -> float:
        if self.lm is None:
            return 10.0
        cached = self._surprisal_cache.get(line)
        if cached is None:
            cached = self.lm.line_surprisal(line)
            self._surprisal_cache[line] = cached
        return cached

    def _module_mean_surprisal(self) -> float:
        """Mean line surprisal of this module — the normaliser that keeps
        the LM features comparable across domains (hand-written designs sit
        at a uniformly higher absolute surprisal than corpus designs)."""
        if self.lm is None:
            return 10.0
        scores = [self.surprisal(line.strip())
                  for line in self.lines if line.strip()]
        if not scores:
            return 10.0
        return max(sum(scores) / len(scores), 1e-6)

    def _consistency(self, line: str) -> float:
        """Fraction of the line's literals that occur elsewhere in the
        module or spec."""
        literals = _LITERAL_RE.findall(line)
        if not literals:
            return 0.5
        supported = 0
        for literal in literals:
            # The line's own occurrence contributes 1; 'elsewhere' means
            # a count of at least 2.
            if self._module_literal_counts.get(literal, 0) >= 2:
                supported += 1
        return supported / len(literals)

    def _build_targets_by_line(self) -> Dict[int, List[str]]:
        """line -> signals driven by the statement on that line (including
        condition-header lines, which 'drive' everything they gate)."""
        from repro.verilog import ast

        mapping: Dict[int, Set[str]] = {}

        def note(line: int, names: List[str]) -> None:
            mapping.setdefault(line, set()).update(names)

        def target_names(target):
            if isinstance(target, ast.Ident):
                return [target.name]
            if isinstance(target, (ast.BitSelect, ast.PartSelect)):
                return target_names(target.base)
            if isinstance(target, ast.Concat):
                names = []
                for part in target.parts:
                    names.extend(target_names(part))
                return names
            return []

        def visit(stmt):
            """Returns all targets assigned under stmt."""
            if isinstance(stmt, ast.Block):
                all_targets = []
                for child in stmt.stmts:
                    all_targets.extend(visit(child))
                return all_targets
            if isinstance(stmt, ast.Assignment):
                names = target_names(stmt.target)
                note(stmt.line, names)
                return names
            if isinstance(stmt, ast.If):
                inner = visit(stmt.then)
                if stmt.other is not None:
                    inner.extend(visit(stmt.other))
                for node in ast.walk(stmt.cond):
                    note(node.line, inner)
                return inner
            if isinstance(stmt, ast.Case):
                inner = []
                for item in stmt.items:
                    inner.extend(visit(item.body))
                for node in ast.walk(stmt.subject):
                    note(node.line, inner)
                return inner
            return []

        for item in self.module.items:
            if isinstance(item, ast.ContinuousAssign):
                note(item.line, target_names(item.target))
            elif isinstance(item, ast.AlwaysBlock):
                visit(item.body)
        return {line: sorted(names) for line, names in mapping.items()}

    def line_targets(self, line: int) -> List[str]:
        return self._targets_by_line.get(line, [])

    _IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

    def _cone_ref_score(self, line: str) -> float:
        """Fraction of a line's RHS identifiers that belong to the failing
        assertion's fan-in cone.  A repair that reconnects the cone (e.g.
        'valid <= en_q;') scores higher than one that severs it
        ('valid <= 1'b0;') — the signal-tracing instinct of a verification
        engineer, in feature form."""
        rhs = line.split("<=")[-1].split("=")[-1]
        idents = [name for name in self._IDENT_RE.findall(rhs)
                  if not name.isdigit()]
        idents = [name for name in idents
                  if name in self.defuse.drivers or name in self.cone
                  or name in self._targets_by_line]
        if not idents:
            return 0.0
        hits = sum(1 for name in idents if name in self.cone)
        return hits / len(idents)

    # -- case-label integrity -------------------------------------------------

    def _build_case_label_map(self) -> Dict[int, List[int]]:
        """label-line -> all constant label values of the enclosing case.

        A mutated case label typically leaves the enclosing ``case`` with a
        duplicate value and a hole; the repair that restores a
        duplicate-free, hole-free label set is almost always the golden
        one.  The map gives each label line the label multiset of its case.
        """
        from repro.verilog import ast

        mapping: Dict[int, List[int]] = {}

        def visit(stmt):
            if isinstance(stmt, ast.Block):
                for child in stmt.stmts:
                    visit(child)
            elif isinstance(stmt, ast.If):
                visit(stmt.then)
                if stmt.other is not None:
                    visit(stmt.other)
            elif isinstance(stmt, ast.Case):
                values: List[int] = []
                label_lines: List[int] = []
                for item in stmt.items:
                    for label in item.labels:
                        if isinstance(label, ast.Number) and not label.xmask:
                            values.append(label.value)
                            label_lines.append(label.line)
                    visit(item.body)
                for line in label_lines:
                    mapping[line] = values

        for item in self.module.items:
            if isinstance(item, ast.AlwaysBlock):
                visit(item.body)
        return mapping

    @staticmethod
    def _label_set_badness(values: List[int]) -> int:
        """Duplicates + holes in [0, max] — 0 for a clean contiguous set."""
        if not values:
            return 0
        duplicates = len(values) - len(set(values))
        holes = (max(values) + 1) - len(set(values))
        return duplicates + max(holes, 0)

    def _case_integrity_delta(self, candidate: RepairCandidate) -> float:
        """badness(before) - badness(after) for case-label edits; 0 for
        candidates that do not touch a constant case label."""
        values = self._case_labels_by_line.get(candidate.line)
        if values is None:
            return 0.0
        old_vals = _label_values(candidate.old_line)
        new_vals = _label_values(candidate.new_line)
        if len(old_vals) != 1 or len(new_vals) != 1 or old_vals == new_vals:
            return 0.0
        before = self._label_set_badness(values)
        patched = list(values)
        try:
            patched.remove(old_vals[0])
        except ValueError:
            return 0.0
        patched.append(new_vals[0])
        after = self._label_set_badness(patched)
        return float(max(min(before - after, 2), -2)) / 2.0

    # -- the feature matrix ---------------------------------------------------

    def _line_features(self, line: int, old_line: str) -> tuple:
        """The features every candidate on one line shares: in-cone,
        drives an assertion signal, cone depth score, old surprisal, old
        literal consistency, condition line, line position and old
        cone-ref score."""
        targets = self.line_targets(line)
        direct = bool(set(targets) & set(self.assert_signals))
        depth = min((self.depths.get(t, 9) for t in targets), default=9)
        stripped = old_line.lstrip()
        is_cond = stripped.startswith(("if ", "if(", "else if", "case ",
                                       "case("))
        return (1.0 if line in self.cone_lines else 0.0,
                1.0 if direct else 0.0,
                1.0 / (1.0 + depth),
                self.surprisal(old_line),
                self._consistency(old_line),
                1.0 if is_cond else 0.0,
                line / self.n_lines,
                self._cone_ref_score(old_line))

    def _rows(self, candidates: List[RepairCandidate]) -> Iterator[list]:
        """Each candidate's row of :data:`FEATURE_NAMES` as Python floats."""
        scale = 2.0 * self._mean_surprisal
        by_line: Dict[tuple, tuple] = {}
        for candidate in candidates:
            key = (candidate.line, candidate.old_line)
            shared = by_line.get(key)
            if shared is None:
                shared = by_line[key] = self._line_features(*key)
            (in_cone, direct, depth_score, old_s, old_consistency, is_cond,
             line_pos, old_cone_refs) = shared
            new_line = candidate.new_line
            ops = candidate.op_names
            yield [
                1.0, in_cone, direct, depth_score,
                old_s / scale,
                (old_s - self.surprisal(new_line)) / scale,
                self._consistency(new_line) - old_consistency,
                is_cond, line_pos,
                self._case_integrity_delta(candidate),
                1.0 if _is_trivial_const_fix(candidate) else 0.0,
                self._cone_ref_score(new_line) - old_cone_refs,
            ] + [1.0 if op in ops else 0.0 for op in OP_NAMES]

    def matrix(self, candidates: List[RepairCandidate]) -> np.ndarray:
        """One float64 row of :data:`FEATURE_NAMES` per candidate, filled
        row by row in one pass, so no row outlives its copy."""
        values = chain.from_iterable(self._rows(candidates))
        return np.fromiter(values, np.float64,
                           len(candidates) * DIM).reshape(-1, DIM)


_TRIVIAL_CONST_RE = re.compile(r"<?=\s*(\d+'[sS]?[bdohBDOH][0-9a-fA-F_]+|\d+)\s*;\s*$")


def _is_trivial_const_fix(candidate: RepairCandidate) -> bool:
    """True when the fix replaces a non-constant RHS with a bare literal —
    the degenerate 'reset it to zero' repair that the n-gram LM loves
    (reset lines dominate healthy RTL) but that is rarely the real fix."""
    new_match = _TRIVIAL_CONST_RE.search(candidate.new_line)
    if new_match is None:
        return False
    old_match = _TRIVIAL_CONST_RE.search(candidate.old_line)
    return old_match is None


def _label_values(line: str) -> List[int]:
    """Constant values of the sized literals on a case-label line."""
    from repro.verilog.lexer import parse_number_literal

    values = []
    for match in re.finditer(r"\d+'[sS]?[bdohBDOH][0-9a-fA-F_]+", line):
        try:
            _, value, xmask = parse_number_literal(match.group())
        except Exception:
            continue
        if not xmask:
            values.append(value)
    return values
