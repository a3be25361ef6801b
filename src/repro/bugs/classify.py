"""Classification of injected bugs along the Table I axes.

Kind comes from the mutation operator itself; conditionality and relation
are derived structurally from the buggy module:

- **Cond** when the mutated text participates in a conditional construct
  (an ``if`` condition or a ``case`` subject/label; a ternary select is
  not one, see :func:`classify_conditionality`);
- **Direct** when a signal *driven* by the mutated line (the assignment
  target, or any target gated by the mutated condition) appears in the
  failing assertion's expression.
"""

from __future__ import annotations

from typing import List, Set

from repro.bugs.taxonomy import Conditionality, Relation
from repro.verilog import ast


def _stmts_with_lines(module: ast.Module):
    """Yield (stmt_or_item, is_condition_context) reachable statements."""
    for item in module.items:
        if isinstance(item, ast.ContinuousAssign):
            yield item
        elif isinstance(item, ast.AlwaysBlock):
            yield from _walk(item.body)


def _walk(stmt: ast.Stmt):
    yield stmt
    if isinstance(stmt, ast.Block):
        for child in stmt.stmts:
            yield from _walk(child)
    elif isinstance(stmt, ast.If):
        yield from _walk(stmt.then)
        if stmt.other is not None:
            yield from _walk(stmt.other)
    elif isinstance(stmt, ast.Case):
        for item in stmt.items:
            yield from _walk(item.body)


def _expr_lines(expr: ast.Expr) -> Set[int]:
    return {n.line for n in ast.walk(expr)}


def classify_conditionality(module: ast.Module, line: int) -> Conditionality:
    """Cond iff the buggy line is part of an ``if`` condition or a
    ``case`` subject or label.

    A ternary select is not a condition context here: a mutation inside
    ``a = c ? x : y`` classifies as Non_cond.  Reclassifying it would
    change the generated datasets (and their fingerprints), so it stays
    as the datasets were built."""
    for node in _stmts_with_lines(module):
        if isinstance(node, ast.If) and line in _expr_lines(node.cond):
            return Conditionality.COND
        if isinstance(node, ast.Case):
            if line in _expr_lines(node.subject):
                return Conditionality.COND
            for item in node.items:
                for label in item.labels:
                    if line in _expr_lines(label):
                        return Conditionality.COND
    return Conditionality.NON_COND


def targets_of_line(module: ast.Module, line: int) -> List[str]:
    """Signals driven by the statement on ``line``.

    For a plain assignment: its target.  For an ``if``/``case`` header
    line: every target assigned anywhere under that construct (the signals
    whose update the condition gates).
    """
    targets: List[str] = []
    for node in _stmts_with_lines(module):
        if isinstance(node, ast.ContinuousAssign) and node.line == line:
            targets.extend(_target_names(node.target))
        elif isinstance(node, ast.Assignment) and node.line == line:
            targets.extend(_target_names(node.target))
        elif isinstance(node, ast.If) and line in _expr_lines(node.cond):
            for inner in _walk(node):
                if isinstance(inner, ast.Assignment):
                    targets.extend(_target_names(inner.target))
        elif isinstance(node, ast.Case) and line in _expr_lines(node.subject):
            for inner in _walk(node):
                if isinstance(inner, ast.Assignment):
                    targets.extend(_target_names(inner.target))
    seen = set()
    unique = []
    for name in targets:
        if name not in seen:
            seen.add(name)
            unique.append(name)
    return unique


def classify_relation(module: ast.Module, line: int,
                      assertion_signals: List[str]) -> Relation:
    """Direct iff a driven signal of the buggy line appears in the
    assertion expression."""
    driven = set(targets_of_line(module, line))
    if driven & set(assertion_signals):
        return Relation.DIRECT
    return Relation.INDIRECT


def _target_names(target: ast.Expr) -> List[str]:
    if isinstance(target, ast.Ident):
        return [target.name]
    if isinstance(target, (ast.BitSelect, ast.PartSelect)):
        return _target_names(target.base)
    if isinstance(target, ast.Concat):
        names: List[str] = []
        for part in target.parts:
            names.extend(_target_names(part))
        return names
    return []


def assertion_expr_signals(module: ast.Module, label: str) -> List[str]:
    """Identifiers appearing in the property referenced by assertion
    ``label`` (clock and disable-iff excluded: they are framing, not the
    protected expression)."""
    props = {p.name: p for p in module.properties()}
    for item in module.assertions():
        if item.label != label and item.label != f"{label}_assertion":
            continue
        prop = item.inline or props.get(item.property_name or "")
        if prop is None:
            return []
        names = [n.name for n in ast.walk(prop.body) if isinstance(n, ast.Ident)]
        seen: Set[str] = set()
        unique = []
        for name in names:
            if name not in seen:
                seen.add(name)
                unique.append(name)
        return unique
    return []
