"""Single-line AST mutation operators.

Each operator family is closed under inversion: for every mutation it can
produce, the inverse edit is also in the enumeration.  This gives the
reproduction a clean correspondence between the *fault model* (what the
Claude-3.5 surrogate injects) and the *repair space* (what the models
search over) — see :mod:`repro.model.candidates`.

Operators and their Table-I kinds:

- ``op_swap`` (Op): binary operator replaced by a peer from its group.
- ``negate_cond`` (Op): logical negation added/removed on a 1-bit context.
- ``const_nudge`` (Value): literal value +/-1.
- ``const_bitflip`` (Value): one bit of a literal flipped.
- ``ident_swap`` (Var): identifier replaced by another in-scope signal.
- ``ternary_swap`` (Op): ternary arms exchanged.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Set

from repro.bugs.taxonomy import BugKind
from repro.verilog import ast
from repro.verilog.writer import OwnerLines, write_header_lines, write_item_lines

# Operator swap groups.  Within a group every member maps to every other,
# so the relation is symmetric (inverse swaps are enumerated too).
_OP_GROUPS = [
    ["+", "-"],
    ["&", "|", "^"],
    ["&&", "||"],
    ["==", "!="],
    ["<", "<=", ">", ">="],
    ["<<", ">>"],
]
_OP_PEERS = {}
for _group in _OP_GROUPS:
    for _op in _group:
        _OP_PEERS[_op] = [p for p in _group if p != _op]


class MutationCandidate:
    """One applicable single-node edit.

    ``apply`` performs the edit in place on the module the candidate was
    enumerated from; ``revert`` undoes it, which lets a :class:`SiteTable`
    apply, emit and revert every candidate on one parse instead of
    deep-copying per edit.  ``owner`` is the node whose canonical line
    holds the edited node (an assignment, an ``if`` header, a case item or
    a continuous assign; see :func:`repro.verilog.writer.write_item_lines`),
    set when the candidate is enumerated.
    """

    __slots__ = ("op_name", "kind", "line", "description", "_apply",
                 "_revert", "repair_only", "owner")

    def __init__(self, op_name: str, kind: BugKind, line: int,
                 description: str, apply_fn: Callable[[], None],
                 revert_fn: Callable[[], None], repair_only: bool = False):
        self.op_name = op_name
        self.kind = kind
        self.line = line
        self.description = description
        self._apply = apply_fn
        self._revert = revert_fn
        # repair_only candidates widen the *repair* space without entering
        # the *fault* space: their inverse edit is not enumerable, so the
        # injector must never pick them (else a machine bug would have no
        # in-space golden fix).
        self.repair_only = repair_only
        self.owner: Optional[ast.Node] = None

    def apply(self) -> None:
        self._apply()

    def revert(self) -> None:
        self._revert()

    def __repr__(self) -> str:  # pragma: no cover
        return f"MutationCandidate({self.op_name}@{self.line}: {self.description})"


def _swap_op_candidates(node: ast.Binary) -> Iterator[MutationCandidate]:
    original = node.op
    peers = _OP_PEERS.get(original, [])
    for peer in peers:
        def apply_fn(n=node, p=peer):
            n.op = p

        def revert_fn(n=node, o=original):
            n.op = o
        yield MutationCandidate(
            "op_swap", BugKind.OP, node.line,
            f"{original} -> {peer}", apply_fn, revert_fn)


def _negate_candidates(node: ast.Expr, setter: Callable[[ast.Expr], None]
                       ) -> Iterator[MutationCandidate]:
    """Add or strip a logical negation at a boolean position."""
    if isinstance(node, ast.Unary) and node.op == "!":
        def strip(n=node, s=setter):
            s(n.operand)

        def unstrip(n=node, s=setter):
            s(n)
        yield MutationCandidate(
            "negate_cond", BugKind.OP, node.line, "drop !", strip, unstrip)
    else:
        wrapper = ast.Unary("!", node, line=node.line)

        def wrap(s=setter, w=wrapper):
            s(w)

        def unwrap(n=node, s=setter):
            s(n)
        yield MutationCandidate(
            "negate_cond", BugKind.OP, node.line, "add !", wrap, unwrap)


def _const_candidates(node: ast.Number) -> Iterator[MutationCandidate]:
    if node.xmask:
        return
    width = node.width or 32
    maximum = (1 << width) - 1

    def set_value(n: ast.Number, value: int) -> None:
        n.value = value & maximum
        if "'" in n.text:
            prefix, _, _ = n.text.partition("'")
            base_char = n.text.partition("'")[2][0]
            if base_char in "bB":
                n.text = f"{prefix}'b{n.value:0{width}b}"
            elif base_char in "hH":
                n.text = f"{prefix}'h{n.value:x}"
            else:
                n.text = f"{prefix}'d{n.value}"
        else:
            n.text = str(n.value)

    original_value = node.value
    original_text = node.text

    def revert_fn(n=node, v=original_value, t=original_text):
        n.value = v
        n.text = t

    for delta, tag in ((1, "+1"), (-1, "-1")):
        new_value = (node.value + delta) & maximum
        if new_value == node.value:
            continue

        def apply_fn(n=node, v=new_value):
            set_value(n, v)
        yield MutationCandidate(
            "const_nudge", BugKind.VALUE, node.line,
            f"{original_value} {tag} -> {new_value}", apply_fn, revert_fn)

    flip_bits = range(min(width, 8))
    for bit in flip_bits:
        new_value = node.value ^ (1 << bit)

        def apply_fn(n=node, v=new_value):
            set_value(n, v)
        yield MutationCandidate(
            "const_bitflip", BugKind.VALUE, node.line,
            f"{original_value} ^bit{bit} -> {new_value}", apply_fn, revert_fn)


def _ident_candidates(node: ast.Ident, peers: Set[str]
                      ) -> Iterator[MutationCandidate]:
    original = node.name

    def revert_fn(n=node, o=original):
        n.name = o

    for peer in sorted(peers):
        if peer == original:
            continue

        def apply_fn(n=node, p=peer):
            n.name = p
        yield MutationCandidate(
            "ident_swap", BugKind.VAR, node.line,
            f"{original} -> {peer}", apply_fn, revert_fn)


def _ternary_candidates(node: ast.Ternary) -> Iterator[MutationCandidate]:
    def swap_fn(n=node):
        n.then, n.other = n.other, n.then
    yield MutationCandidate(
        "ternary_swap", BugKind.OP, node.line, "swap ternary arms",
        swap_fn, swap_fn)


def _concat_swap_candidates(node: ast.Concat) -> Iterator[MutationCandidate]:
    """Swap the two halves of a 2-element concatenation (byte-order bugs)."""
    if len(node.parts) != 2:
        return

    def swap_fn(n=node):
        n.parts[0], n.parts[1] = n.parts[1], n.parts[0]
    yield MutationCandidate(
        "concat_swap", BugKind.OP, node.line, "swap concat halves",
        swap_fn, swap_fn)


def _const_set_candidates(node: ast.Number) -> Iterator[MutationCandidate]:
    """Replace a sized literal with a peer value.

    Peers: every value of the same width for narrow literals (<= 4 bits),
    else 0 / 1 / all-ones.  Self-inverse as a family: the original value
    is always a peer of any replacement.
    """
    if node.xmask or node.width is None:
        return
    width = node.width
    repair_only = False
    if width <= 4:
        peers = set(range(1 << width))
    else:
        # Wider literals: the module-literal pool is not stable under
        # injection (mutating a value can remove its partner from the
        # pool), so wide const_set edits are repair-only: available as
        # fixes, never injected as faults.  Case-label restoration for
        # wide labels is handled by the dedicated case_label_restore op.
        repair_only = True
        peers = {0, 1, (1 << width) - 1}
    original_value = node.value
    original_text = node.text

    def revert_fn(n=node, v=original_value, t=original_text):
        n.value = v
        n.text = t

    base_char = "d"
    if "'" in node.text:
        base_char = node.text.partition("'")[2][0].lower()
        if base_char == "s":
            base_char = node.text.partition("'")[2][1].lower()
    for peer in sorted(peers):
        if peer == original_value:
            continue

        def apply_fn(n=node, v=peer, w=width, b=base_char):
            n.value = v
            prefix = n.text.partition("'")[0] or str(w)
            if b == "b":
                n.text = f"{prefix}'b{v:0{w}b}"
            elif b == "h":
                n.text = f"{prefix}'h{v:x}"
            else:
                n.text = f"{prefix}'d{v}"
        yield MutationCandidate(
            "const_set", BugKind.VALUE, node.line,
            f"{original_value} -> {peer}", apply_fn, revert_fn,
            repair_only=repair_only)


def _rhs_swap_candidates(stmt: ast.Assignment, peers: Set[str],
                         target_width: Optional[int]
                         ) -> Iterator[MutationCandidate]:
    """Replace the whole RHS with another in-scope signal.

    For trivial RHSs (a lone literal or identifier) this is a symmetric
    fault/repair operator — it covers stuck-at bugs like ``en_q <= 1'b0;``
    whose fix is ``en_q <= en;``.  For structured RHSs (selects, unaries)
    and for the negated variants on 1-bit targets it is repair-only.
    """
    original = stmt.value
    trivial = isinstance(original, (ast.Number, ast.Ident))
    structured = isinstance(original, (ast.BitSelect, ast.PartSelect,
                                       ast.Unary))
    if not trivial and not structured:
        return

    def revert_fn(s=stmt, o=original):
        s.value = o

    skip = original.name if isinstance(original, ast.Ident) else None
    for peer in sorted(peers):
        if peer == skip:
            continue

        def apply_fn(s=stmt, p=peer, line=original.line):
            s.value = ast.Ident(p, line=line)
        yield MutationCandidate(
            "rhs_swap", BugKind.VAR, stmt.line,
            f"rhs -> {peer}", apply_fn, revert_fn,
            repair_only=structured)
        if target_width == 1:
            def apply_neg(s=stmt, p=peer, line=original.line):
                s.value = ast.Unary("!", ast.Ident(p, line=line), line=line)
            yield MutationCandidate(
                "rhs_swap", BugKind.VAR, stmt.line,
                f"rhs -> !{peer}", apply_neg, revert_fn, repair_only=True)
    if target_width is not None:
        # Constant RHS candidates keep the family symmetric: an injected
        # const->ident swap has its ident->const inverse available here.
        # 1-bit constants render as 1'b0/1'b1, matching RTL convention (and
        # therefore the golden text of reset-value lines).
        for value in sorted({0, 1, (1 << target_width) - 1}):
            if isinstance(original, ast.Number) and original.value == value:
                continue
            if target_width == 1:
                text = f"1'b{value}"
            else:
                text = f"{target_width}'d{value}"

            def apply_const(s=stmt, v=value, w=target_width, x=text,
                            line=stmt.line):
                s.value = ast.Number(v, w, 0, x, line=line)
            yield MutationCandidate(
                "rhs_swap", BugKind.VALUE, stmt.line,
                f"rhs -> {text}", apply_const, revert_fn,
                repair_only=structured)


def _drop_term_candidates(node: ast.Binary, setter: Callable[[ast.Expr], None]
                          ) -> Iterator[MutationCandidate]:
    """Repair-only: collapse ``expr OP literal`` to ``expr`` (removes a
    spurious added term, e.g. ``mins + 6'd1 + 6'd1`` -> ``mins + 6'd1``)."""
    if node.op not in ("+", "-", "&", "|", "^", "<<", ">>"):
        return
    if not isinstance(node.rhs, ast.Number):
        return

    def apply_fn(n=node, s=setter):
        s(n.lhs)

    def revert_fn(n=node, s=setter):
        s(n)
    yield MutationCandidate(
        "drop_term", BugKind.OP, node.line,
        f"drop '{node.op} literal' term", apply_fn, revert_fn,
        repair_only=True)


def _ident_to_const_candidates(node: ast.Binary,
                               widths: "dict[str, int]"
                               ) -> Iterator[MutationCandidate]:
    """Repair-only: replace an identifier operand with a small sized
    literal, using the sibling operand's width as the anchor
    (``bit_cnt + din`` -> ``bit_cnt + 3'd1``)."""
    def width_of(expr):
        if isinstance(expr, ast.Number):
            return expr.width
        if isinstance(expr, ast.Ident):
            return widths.get(expr.name)
        return None

    pairs = []
    if isinstance(node.rhs, ast.Ident):
        anchor = width_of(node.lhs)
        if anchor:
            pairs.append(("rhs", node.rhs, anchor))
    if isinstance(node.lhs, ast.Ident):
        anchor = width_of(node.rhs)
        if anchor:
            pairs.append(("lhs", node.lhs, anchor))
    for side, ident, width in pairs:
        for value in (0, 1):
            number = ast.Number(value, width, 0, f"{width}'d{value}",
                                line=ident.line)

            def apply_fn(n=node, s=side, num=number):
                if s == "rhs":
                    n.rhs = num
                else:
                    n.lhs = num

            def revert_fn(n=node, s=side, i=ident):
                if s == "rhs":
                    n.rhs = i
                else:
                    n.lhs = i
            yield MutationCandidate(
                "ident_to_const", BugKind.VAR, ident.line,
                f"{ident.name} -> {width}'d{value}", apply_fn, revert_fn,
                repair_only=True)


def _signal_names(module: ast.Module) -> Set[str]:
    names = {p.name for p in module.ports}
    names.update(d.name for d in module.decls())
    return names


def _iter_expr_sites(expr: ast.Expr, setter: Callable[[ast.Expr], None],
                     peers: Set[str], boolean_pos: bool,
                     widths: "dict[str, int]"
                     ) -> Iterator[MutationCandidate]:
    """Enumerate candidates in one expression tree.

    ``setter`` rebinds the root (needed for negation wrapping); children
    are mutated in place through node attributes.
    """
    if boolean_pos:
        yield from _negate_candidates(expr, setter)
    if isinstance(expr, ast.Binary):
        yield from _drop_term_candidates(expr, setter)
    stack: List[ast.Expr] = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Binary):
            yield from _swap_op_candidates(node)
            yield from _ident_to_const_candidates(node, widths)
            if node.op in ("&&", "||"):
                # Polarity of either operand of a logical connective —
                # covers bugs like 'valid_in && half_full' vs
                # 'valid_in && !half_full' that root-level negation misses.
                def set_lhs(e, n=node):
                    n.lhs = e

                def set_rhs(e, n=node):
                    n.rhs = e
                yield from _negate_candidates(node.lhs, set_lhs)
                yield from _negate_candidates(node.rhs, set_rhs)
            stack.extend([node.lhs, node.rhs])
        elif isinstance(node, ast.Unary):
            stack.append(node.operand)
        elif isinstance(node, ast.Ternary):
            yield from _ternary_candidates(node)
            stack.extend([node.cond, node.then, node.other])
        elif isinstance(node, ast.Number):
            yield from _const_candidates(node)
            yield from _const_set_candidates(node)
        elif isinstance(node, ast.Ident):
            yield from _ident_candidates(node, peers)
        elif isinstance(node, (ast.BitSelect,)):
            stack.extend([node.base, node.index])
        elif isinstance(node, ast.PartSelect):
            stack.append(node.base)
        elif isinstance(node, ast.Concat):
            yield from _concat_swap_candidates(node)
            stack.extend(node.parts)
        elif isinstance(node, ast.Repeat):
            stack.append(node.value)
        elif isinstance(node, ast.SysCall):
            stack.extend(node.args)


def _target_base_width(target: ast.Expr,
                       widths: "dict[str, int]") -> Optional[int]:
    if isinstance(target, ast.Ident):
        return widths.get(target.name)
    if isinstance(target, (ast.BitSelect,)):
        return 1
    return None


def _owned_by(owner: ast.Node, candidates: Iterable[MutationCandidate]
              ) -> Iterator[MutationCandidate]:
    for candidate in candidates:
        candidate.owner = owner
        yield candidate


def _iter_stmt_sites(stmt: ast.Stmt, peers: Set[str],
                     widths: "dict[str, int]"
                     ) -> Iterator[MutationCandidate]:
    """Candidates under ``stmt``, each tagged with its owner line's node."""
    if isinstance(stmt, ast.Block):
        for child in stmt.stmts:
            yield from _iter_stmt_sites(child, peers, widths)
    elif isinstance(stmt, ast.Assignment):
        def set_value(e, s=stmt):
            s.value = e
        target_width = _target_base_width(stmt.target, widths)
        yield from _owned_by(stmt, _rhs_swap_candidates(stmt, peers,
                                                        target_width))
        # A 1-bit target makes the RHS a boolean position: polarity bugs
        # like 'done <= !byte_end;' are symmetric negations there.
        yield from _owned_by(stmt, _iter_expr_sites(
            stmt.value, set_value, peers, boolean_pos=(target_width == 1),
            widths=widths))
    elif isinstance(stmt, ast.If):
        def set_cond(e, s=stmt):
            s.cond = e
        yield from _owned_by(stmt, _iter_expr_sites(
            stmt.cond, set_cond, peers, boolean_pos=True, widths=widths))
        yield from _iter_stmt_sites(stmt.then, peers, widths)
        if stmt.other is not None:
            yield from _iter_stmt_sites(stmt.other, peers, widths)
    elif isinstance(stmt, ast.Case):
        yield from _case_label_restore_candidates(stmt)
        for item in stmt.items:
            for label in item.labels:
                if isinstance(label, ast.Number):
                    yield from _owned_by(item, _const_candidates(label))
                    yield from _owned_by(item, _const_set_candidates(label))
            yield from _iter_stmt_sites(item.body, peers, widths)


def _case_label_restore_candidates(stmt: ast.Case
                                   ) -> Iterator[MutationCandidate]:
    """Repair-only: a duplicated constant case label is retargeted to one
    of the values missing from [0, max label] — the canonical fix for a
    mutated case label in a decoder/mux, independent of label width."""
    numbers: List[ast.Number] = []
    owners: List[ast.CaseItem] = []
    for item in stmt.items:
        for label in item.labels:
            if isinstance(label, ast.Number) and not label.xmask:
                numbers.append(label)
                owners.append(item)
    if not numbers:
        return
    values = [n.value for n in numbers]
    value_counts = {}
    for value in values:
        value_counts[value] = value_counts.get(value, 0) + 1
    missing = [v for v in range(max(values) + 1) if v not in value_counts]
    if not missing or len(missing) > 4:
        return
    for node, owner in zip(numbers, owners):
        if value_counts[node.value] < 2:
            continue
        original_value = node.value
        original_text = node.text

        def revert_fn(n=node, v=original_value, x=original_text):
            n.value = v
            n.text = x

        for target in missing:
            def apply_fn(n=node, v=target):
                width = n.width or 32
                prefix = n.text.partition("'")[0] or str(width)
                base = n.text.partition("'")[2][:1].lower() or "d"
                n.value = v
                if base == "b":
                    n.text = f"{prefix}'b{v:0{width}b}"
                elif base == "h":
                    n.text = f"{prefix}'h{v:x}"
                else:
                    n.text = f"{prefix}'d{v}"
            candidate = MutationCandidate(
                "case_label_restore", BugKind.VALUE, node.line,
                f"duplicate label {original_value} -> missing {target}",
                apply_fn, revert_fn, repair_only=True)
            candidate.owner = owner
            yield candidate


class ModuleMutationContext:
    """Shared lookup tables for enumerating one module's mutations."""

    def __init__(self, module: ast.Module):
        self.peers = _signal_names(module)
        self.widths = _signal_widths(module)


def enumerate_item_mutations(item: ast.Item, context: ModuleMutationContext
                             ) -> List[MutationCandidate]:
    """Mutation candidates confined to one module item."""
    candidates: List[MutationCandidate] = []
    if isinstance(item, ast.ContinuousAssign):
        def set_value(e, it=item):
            it.value = e
        target_width = _target_base_width(item.target, context.widths)
        candidates.extend(_owned_by(item, _iter_expr_sites(
            item.value, set_value, context.peers,
            boolean_pos=(target_width == 1), widths=context.widths)))
    elif isinstance(item, ast.AlwaysBlock):
        candidates.extend(_iter_stmt_sites(item.body, context.peers,
                                           context.widths))
    return candidates


def enumerate_mutations(module: ast.Module) -> List[MutationCandidate]:
    """All single-node mutation candidates of ``module``'s RTL (assertions
    and property declarations are never mutated — bugs live in the design,
    matching the paper's setup)."""
    context = ModuleMutationContext(module)
    candidates: List[MutationCandidate] = []
    for item in module.items:
        candidates.extend(enumerate_item_mutations(item, context))
    return candidates


def _signal_widths(module: ast.Module) -> "dict[str, int]":
    widths: "dict[str, int]" = {}
    for port in module.ports:
        if isinstance(port.msb, int) and isinstance(port.lsb, int):
            widths[port.name] = abs(port.msb - port.lsb) + 1
    for decl in module.decls():
        if isinstance(decl.msb, int) and isinstance(decl.lsb, int):
            widths[decl.name] = abs(decl.msb - decl.lsb) + 1
    return widths


# Mutation-family weights.  Chosen so the *kind* marginals of the injected
# population track the paper's Table II (Value ~65%, Op ~29%, Var ~7% of
# SVA-Bug entries): the family is drawn first, then a candidate within it.
_KIND_WEIGHTS = {BugKind.VALUE: 0.64, BugKind.OP: 0.29, BugKind.VAR: 0.07}


class SingleLineEdit(NamedTuple):
    """A candidate's edit as it shows in the canonical emission."""

    line: int            # 1-based line number in the canonical text
    golden_line: str     # that line before the edit (unstripped)
    edited_line: str     # that line with the edit applied
    probed: object       # ``probe(module, candidate.line)`` while applied


class SiteTable:
    """Every mutation site of one module, enumerated once.

    Holds the canonical lines, every candidate (tagged with its owner
    node), each owner's line index and a function that re-emits that one
    line, and the fault space: the non-repair-only candidates grouped by
    kind in enumeration order, with the kind weights the injector draws
    from.

    :meth:`edit` is the one apply / emit / revert engine behind bug
    injection and repair enumeration.  Every mutation site sits on its
    owner's line and the writer emits one statement per line, so a
    single-node mutation can change only that line: only it is
    re-emitted.  The module is mutated only inside :meth:`edit`, and
    always restored.
    """

    def __init__(self, module: ast.Module):
        self.module = module
        self.lines: List[str] = write_header_lines(module)
        self.candidates: List[MutationCandidate] = []
        # owner node -> (canonical line index, re-emitter of that line)
        self._owner_lines: OwnerLines = {}
        context = ModuleMutationContext(module)
        for item in module.items:
            owners: OwnerLines = {}
            offset = len(self.lines)
            self.lines.extend(write_item_lines(item, owners))
            for owner, (index, render) in owners.items():
                self._owner_lines[owner] = (offset + index, render)
            self.candidates.extend(enumerate_item_mutations(item, context))
        self.lines.append("endmodule")
        self.canonical = "\n".join(self.lines) + "\n"  # write_module bytes
        self.faults_by_kind: Dict[BugKind, List[MutationCandidate]] = {}
        for candidate in self.candidates:
            if not candidate.repair_only:
                # Repair-only operators widen the fix space, not the fault
                # space: injecting them would create bugs with no in-space
                # golden fix.
                self.faults_by_kind.setdefault(candidate.kind,
                                               []).append(candidate)
        self.fault_kinds = list(self.faults_by_kind)
        self.fault_weights = [_KIND_WEIGHTS[k] for k in self.fault_kinds]

    def edit(self, candidate: MutationCandidate,
             probe: Optional[Callable[[ast.Module, int], object]] = None
             ) -> Optional[SingleLineEdit]:
        """Apply ``candidate``, re-emit its owner line, then revert.

        Returns the edit when it changes the line, else None.
        ``probe(module, candidate.line)`` runs on the edited module (only
        for a changed line) and its result rides along.
        """
        index, render = self._owner_lines[candidate.owner]
        golden = self.lines[index]
        candidate.apply()
        try:
            edited = render()
            if edited == golden:
                return None
            probed = (probe(self.module, candidate.line)
                      if probe is not None else None)
        finally:
            candidate.revert()
        return SingleLineEdit(index + 1, golden, edited, probed)
