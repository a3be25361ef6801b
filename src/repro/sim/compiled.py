"""Compiled simulation tier: each design becomes one generated Python program.

The interpreter (:class:`repro.sim.simulator.Simulator`) re-walks the AST
with per-node dispatch and dict-keyed environments once per signal per
cycle per stimulus.  This module emits, once per elaborated design,
Python source text for the whole cycle engine and runs it through
``compile()``:

- ``settle(v)`` runs every continuous assign and ``always @(*)`` block in
  dependency (topological) order: straight-line when the comb logic is a
  single-driver DAG (one sweep is the fixed point), inside a changed-flag
  loop bounded at the interpreter's 50 iterations otherwise;
- ``edge(v)`` runs every clocked block against the pre-edge values and
  commits the non-blocking updates together.

``v`` is the simulator's slot list (one :class:`FourState` per signal,
in ``Design.symbols`` order).  Inside a function every slot lives in a
local (``s<i>``, unpacked from ``v`` on entry and written back on each
update); a block's blocking scratch values are ``b<i>`` and its pending
non-blocking values ``n<i>``, so there are no dict lookups and no calls
per AST node.  Operators whose result is one bit (``!``, reductions,
compares, ``&&``/``||``, bit selects) are inlined against FourState's
canonical representation and return the three shared singletons;
bitwise operators, ``+``/``-`` and concatenations build their result in
one allocation; the rest call the :class:`FourState` methods the
interpreter calls.  A ``.resize(w)`` is emitted only where the width is not
statically ``w``.

Constants never appear as literals: each folded value, literal and
X-poison value is named ``_g<N>`` in emission order and lives in the
function's globals, so the text is a function of the design's structure
alone.  Equal text shares one code object through a bounded LRU
(``CODE_CACHE_ENTRIES``), which is what makes emission cheap for
mutants: a mutant shares every unchanged function with its golden, and
a constant nudge changes no text at all.  Constant folding evaluates a
closed emitted expression once; if that raises, the expression stays
dynamic so the error surfaces at run time exactly where the interpreter
raises it.

:class:`_Emitter` is shared with the SVA monitor
(:mod:`repro.sva.monitor`), whose property functions read
``trace.snapshots[c][name]`` instead of slots and emit the temporal
functions against a shifted cycle.

The program is cached per :class:`Design` *instance*; because
:class:`repro.verilog.compile.CompileCache` shares one immutable design
object per source content hash, instance identity coincides with content
identity in-process.  Programs are never pickled or attached to the
(disk-persisted) compile results.

Semantics contract: a :class:`CompiledSimulator` produces byte-identical
traces — same snapshots, same error messages at the same statement and
cycle — as the interpreter (:class:`Simulator`, kept as the reference
oracle) on every design that compiles.  The lowering is total: what the
interpreter rejects at run time (a concat part that is no target, a bad
select base) is emitted as the same raise at the same statement, and the
frontend's :data:`repro.verilog.parser.MAX_NESTING` keeps every emitted
function within what ``compile()`` accepts.
"""

from __future__ import annotations

import threading
import weakref
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.engine import metrics
from repro.sim.eval import EvalError, Evaluator
from repro.sim.runloop import RunLoop
from repro.sim.simulator import (
    _MAX_SETTLE_ITERATIONS,
    SimulationError,
    Simulator,
    _base_name,
    _target_name_list,
)
from repro.sim.stimulus import reset_values
from repro.sim.values import FourState
from repro.store.lru import StoreBackedLRU
from repro.verilog import ast
from repro.verilog.elaborator import Design, _walk_stmts

_TRUE = FourState.from_bool(True)
_FALSE = FourState.from_bool(False)
_X1 = FourState.unknown(1)

#: Distinct function texts kept compiled.  One datagen call of 24
#: designs emits about a thousand functions with a few hundred distinct
#: texts; the LRU keeps a long run from growing without bound.
CODE_CACHE_ENTRIES = 2048

_CODE = StoreBackedLRU(CODE_CACHE_ENTRIES, None, "code")


def _code(text: str):
    """The code object of ``text`` (a module defining one function)."""
    code = _CODE.get(text)
    if code is None:
        code = compile(text, "<repro.sim.compiled>", "exec")
        _CODE.put(text, code)
    return code


def _tmerge(a: FourState, b: FourState) -> FourState:
    """An X ternary select: X wherever the two branches differ."""
    width = a.width if a.width > b.width else b.width
    return FourState(width, a.value, (a.value ^ b.value) | a.xmask | b.xmask)


def _popcount(value: int) -> int:
    return bin(value).count("1")


#: Names every emitted function may use besides its own ``_g<N>``.
_BASE = {
    "FourState": FourState, "EvalError": EvalError,
    "SimulationError": SimulationError, "_T": _TRUE, "_F": _FALSE,
    "_X1": _X1, "_tmerge": _tmerge, "_pop": _popcount,
}


class _Fn:
    """One emitted function under construction."""

    __slots__ = ("lines", "depth", "temps", "ns", "consts")

    def __init__(self):
        self.lines: List[Tuple[int, str]] = []
        self.depth = 1
        self.temps = 0
        self.ns = dict(_BASE)
        self.consts = 0

    def text(self, header: str, lines=None) -> str:
        body = self.lines if lines is None else lines
        if not body:
            body = [(1, "pass")]
        base = body[0][0] - 1 if lines is not None else 0
        return header + "\n" + "\n".join(
            "    " * (depth - base) + line for depth, line in body) + "\n"


#: Expression results: (python text, static width or None, constant).
#: A constant's text is the name of its ``_g<N>`` global.
_Result = Tuple[str, Optional[int], bool]


class _Emitter:
    """Emits expressions and statements into the current :class:`_Fn`.

    Reads resolve through :meth:`_ident` (slot locals here; trace
    snapshots in the SVA monitor's subclass) and system functions through
    :meth:`_syscall`.  Each compound node's value is assigned to a fresh
    temp ``t<N>``, in the interpreter's evaluation order.
    """

    def __init__(self, design: Design):
        self.design = design
        self.params = design.params
        self.names: Tuple[str, ...] = tuple(design.symbols)
        self.slots: Dict[str, int] = {name: i for i, name in enumerate(self.names)}
        self.widths: Tuple[int, ...] = tuple(
            sym.width for sym in design.symbols.values())
        self.fn = _Fn()

    # -- emission primitives -----------------------------------------------

    def line(self, text: str) -> None:
        self.fn.lines.append((self.fn.depth, text))

    def open(self, header: str) -> int:
        self.line(header)
        self.fn.depth += 1
        return len(self.fn.lines)

    def close(self, mark: int) -> None:
        if len(self.fn.lines) == mark:
            self.line("pass")
        self.fn.depth -= 1

    def temp(self, text: str) -> str:
        name = f"t{self.fn.temps}"
        self.fn.temps += 1
        self.line(f"{name} = {text}")
        return name

    def name(self, text: str) -> str:
        """``text`` as a name, assigning it to a temp if it is not one."""
        return text if text.isidentifier() else self.temp(text)

    def const(self, value) -> str:
        fn = self.fn
        name = f"_g{fn.consts}"
        fn.consts += 1
        fn.ns[name] = value
        return name

    def const_value(self, name: str):
        return self.fn.ns[name]

    def raise_(self, exc_type, message: str) -> _Result:
        self.line(f"raise {exc_type.__name__}({self.const(message)})")
        return "None", None, False

    def discard(self, emit):
        """Run ``emit`` (for its lowering-time errors and constants) and
        drop the lines it emitted: code the closure never evaluates."""
        mark = len(self.fn.lines)
        result = emit()
        del self.fn.lines[mark:]
        return result

    def fold(self, mark: int, text: str, width, const: bool) -> _Result:
        """Evaluate a closed expression once at compile time.

        Anything the evaluation raises (EvalError, arithmetic errors) keeps
        the expression dynamic so the error surfaces at run time exactly
        where the interpreter would raise it.
        """
        if not const:
            return text, width, False
        fn = self.fn
        lines = fn.lines[mark:] + [(fn.depth, f"return {text}")]
        try:
            exec(_code(fn.text("def _fold():", lines)), fn.ns)
            value = fn.ns.pop("_fold")()
        except Exception:
            fn.ns.pop("_fold", None)
            return text, width, False
        del fn.lines[mark:]
        return self.const(value), value.width, True

    # -- expressions -------------------------------------------------------

    def _param(self, name: str) -> _Result:
        return self.const(FourState(32, self.params[name] & 0xFFFFFFFF)), 32, True

    def _ident(self, expr: ast.Ident) -> _Result:
        """Overridable binding: what a signal read is."""
        raise NotImplementedError

    def expr(self, expr: ast.Expr) -> _Result:
        t = type(expr)
        if t is ast.Number:
            width = expr.width or 32
            return self.const(FourState(width, expr.value, expr.xmask)), width, True
        if t is ast.Ident:
            return self._ident(expr)
        mark = len(self.fn.lines)
        if t is ast.Unary:
            return self._unary(expr, mark)
        if t is ast.Binary:
            return self._binary(expr, mark)
        if t is ast.Ternary:
            return self._ternary(expr, mark)
        if t is ast.BitSelect:
            base, _, bc = self.expr(expr.base)
            index, _, ic = self.expr(expr.index)
            b = self.name(base)
            if ic:
                at = self.const_value(index)
                if at.has_x:
                    return self.fold(mark, "_X1", 1, bc)
                i = self.const(at.value)
                out = (f"_X1 if {i} >= {b}.width or ({b}.xmask >> {i}) & 1 "
                       f"else (_T if ({b}.value >> {i}) & 1 else _F)")
            else:
                i = self.name(index)
                out = (f"_X1 if {i}.xmask or {i}.value >= {b}.width "
                       f"or ({b}.xmask >> {i}.value) & 1 "
                       f"else (_T if ({b}.value >> {i}.value) & 1 else _F)")
            return self.fold(mark, self.temp(out), 1, bc and ic)
        if t is ast.PartSelect:
            base, _, bc = self.expr(expr.base)
            msb, _, mc = self.expr(expr.msb)
            lsb, _, lc = self.expr(expr.lsb)
            width = None
            if mc and lc:
                hi, lo = self.const_value(msb), self.const_value(lsb)
                width = max(1, abs(hi.value - lo.value) + 1)
                if not (hi.has_x or lo.has_x):
                    out = self.temp(f"{self.name(base)}.slice({msb}.value, {lsb}.value)")
                    return self.fold(mark, out, width, bc)
            b, h, low = self.name(base), self.name(msb), self.name(lsb)
            out = self.temp(
                f"FourState.unknown(max(1, abs({h}.value - {low}.value) + 1)) "
                f"if {h}.xmask or {low}.xmask else {b}.slice({h}.value, {low}.value)")
            return self.fold(mark, out, width, bc and mc and lc)
        if t is ast.Concat:
            if not expr.parts:
                return self.raise_(EvalError, "empty concatenation")
            parts = [self.expr(part) for part in expr.parts]
            if len(parts) == 1:
                return parts[0]
            names = [self.name(text) for text, _, _ in parts]
            widths = [w for _, w, _ in parts]
            const = all(c for _, _, c in parts)
            if None in widths:
                out = names[0]
                for part in names[1:]:
                    out = f"{out}.concat({part})"
                return self.fold(mark, self.temp(out), None, const)
            shifts = []
            shift = 0
            for part, w in zip(reversed(names), reversed(widths)):
                shifts.append((part, shift))
                shift += w
            shifts.reverse()
            value = " | ".join(f"({p}.value << {s})" if s else f"{p}.value"
                               for p, s in shifts)
            xmask = " | ".join(f"({p}.xmask << {s})" if s else f"{p}.xmask"
                               for p, s in shifts)
            return self.fold(
                mark, self.temp(f"FourState({shift}, {value}, {xmask})"),
                shift, const)
        if t is ast.Repeat:
            count, _, cc = self.expr(expr.count)
            c = self.name(count)
            self.line(f"if {c}.xmask: raise EvalError("
                      f"{self.const('replication count is unknown')})")
            value, vw, vc = self.expr(expr.value)
            width = None
            if cc and vw is not None and not self.const_value(count).has_x:
                width = vw * max(self.const_value(count).value, 1)
            out = self.temp(f"{self.name(value)}.repeat(max({c}.value, 1))")
            return self.fold(mark, out, width, cc and vc)
        if t is ast.SysCall:
            return self._syscall(expr, mark)
        return self.raise_(EvalError, f"cannot evaluate {type(expr).__name__}")

    _UNARY = {
        "!": "_F if {a}.value else (_T if not {a}.xmask else _X1)",
        "&": "_F if ({a}.value | {a}.xmask) != {m} else (_X1 if {a}.xmask else _T)",
        "|": "_T if {a}.value else (_X1 if {a}.xmask else _F)",
        "^": "_X1 if {a}.xmask else (_T if _pop({a}.value) & 1 else _F)",
        "~": "FourState({w}, ~{a}.value, {a}.xmask)",
        "-": "{a}.negate()",
    }

    def _unary(self, expr: ast.Unary, mark: int) -> _Result:
        op = expr.op
        if op not in self._UNARY and op != "+":
            self.discard(lambda: self.expr(expr.operand))
            return self.raise_(EvalError, f"unknown unary operator {op!r}")
        text, width, const = self.expr(expr.operand)
        if op == "+":
            return text, width, const
        a = self.name(text)
        if width is None:
            w, m = f"{a}.width", f"(1 << {a}.width) - 1"
        else:
            w, m = width, (1 << width) - 1
        out = self.temp(self._UNARY[op].format(a=a, m=m, w=w))
        return self.fold(mark, out, width if op in ("~", "-") else 1, const)

    _CMP = ("<", "<=", ">", ">=")
    _ARITH = ("+", "-", "*", "/", "%", "**")

    def _binary(self, expr: ast.Binary, mark: int) -> _Result:
        op = expr.op
        method = Evaluator._BINARY_DISPATCH.get(op)
        if method is None and op != "!==":
            self.discard(lambda: (self.expr(expr.lhs), self.expr(expr.rhs)))
            return self.raise_(EvalError, f"unknown binary operator {op!r}")
        lhs, lw, lc = self.expr(expr.lhs)
        rhs, rw, rc = self.expr(expr.rhs)
        a, b = self.name(lhs), self.name(rhs)
        const = lc and rc
        width = (max(lw, rw) if lw is not None and rw is not None else None)
        if op in ("==", "!="):
            eq, ne = ("_T", "_F") if op == "==" else ("_F", "_T")
            out = f"t{self.fn.temps}"
            self.fn.temps += 1
            self.line(f"if {a}.xmask or {b}.xmask: {out} = {ne} if "
                      f"({a}.value ^ {b}.value) & ~({a}.xmask | {b}.xmask) "
                      f"else _X1")
            self.line(f"else: {out} = {eq} if {a}.value == {b}.value else {ne}")
            return self.fold(mark, out, 1, const)
        if op in ("===", "!=="):
            eq, ne = ("_T", "_F") if op == "===" else ("_F", "_T")
            out = self.temp(f"{eq} if {a}.value == {b}.value and "
                            f"{a}.xmask == {b}.xmask else {ne}")
            return self.fold(mark, out, 1, const)
        if op in self._CMP:
            out = self.temp(f"_X1 if {a}.xmask or {b}.xmask else "
                            f"(_T if {a}.value {op} {b}.value else _F)")
            return self.fold(mark, out, 1, const)
        if op == "&&":
            out = self.temp(
                f"_F if (not {a}.value and not {a}.xmask) or "
                f"(not {b}.value and not {b}.xmask) else "
                f"(_T if {a}.value and {b}.value else _X1)")
            return self.fold(mark, out, 1, const)
        if op == "||":
            out = self.temp(
                f"_T if {a}.value or {b}.value else "
                f"(_F if not {a}.xmask and not {b}.xmask else _X1)")
            return self.fold(mark, out, 1, const)
        w = str(width) if width is not None else \
            f"({a}.width if {a}.width > {b}.width else {b}.width)"
        if op == "&":
            out = self.temp(
                f"FourState({w}, {a}.value & {b}.value, ({a}.xmask | {b}.xmask)"
                f" & ({a}.value | {a}.xmask) & ({b}.value | {b}.xmask))")
        elif op == "|":
            out = self.temp(
                f"FourState({w}, {a}.value | {b}.value, ({a}.xmask | {b}.xmask)"
                f" & ~({a}.value | {b}.value))")
        elif op in ("^", "~^", "^~"):
            value = f"{a}.value ^ {b}.value"
            if op != "^":
                value = f"~({value})"
            out = self.temp(f"FourState({w}, {value}, {a}.xmask | {b}.xmask)")
        elif op in ("+", "-") and width is not None:
            # Vector-pessimistic on X, like FourState.add/sub.
            unknown = self.const(FourState.unknown(width))
            out = self.temp(f"{unknown} if {a}.xmask or {b}.xmask else "
                            f"FourState({w}, {a}.value {op} {b}.value)")
        else:
            out = self.temp(f"{a}.{method}({b})")
            if op not in self._ARITH:
                width = lw  # shifts keep the left operand's width
        return self.fold(mark, out, width, const)

    def _ternary(self, expr: ast.Ternary, mark: int) -> _Result:
        cond, _, cc = self.expr(expr.cond)
        c = self.name(cond)
        fn = self.fn
        then_mark = len(fn.lines)
        then, tw, tc = self.expr(expr.then)
        then_lines = fn.lines[then_mark:]
        del fn.lines[then_mark:]
        other, ow, oc = self.expr(expr.other)
        other_lines = fn.lines[then_mark:]
        del fn.lines[then_mark:]
        width = tw if tw == ow else None
        if not then_lines and not other_lines:
            out = self.temp(f"{then} if {c}.value else ({other} if not "
                            f"{c}.xmask else _tmerge({then}, {other}))")
            return self.fold(mark, out, width, cc and tc and oc)
        # Each branch is emitted once: k is 1 (then), 0 (other) or 2 (X:
        # both, then-branch first, as the interpreter evaluates them).
        k = self.temp(f"1 if {c}.value else (2 if {c}.xmask else 0)")
        a = f"t{fn.temps}"
        b = f"t{fn.temps + 1}"
        fn.temps += 2
        inner = self.open(f"if {k}:")
        self._splice(then_lines)
        self.line(f"{a} = {then}")
        self.close(inner)
        inner = self.open(f"if {k} != 1:")
        self._splice(other_lines)
        self.line(f"{b} = {other}")
        self.close(inner)
        out = self.temp(f"{a} if {k} == 1 else ({b} if not {k} "
                        f"else _tmerge({a}, {b}))")
        return self.fold(mark, out, width, cc and tc and oc)

    def _splice(self, lines) -> None:
        """Re-emit ``lines`` (cut from this function) at the current depth."""
        fn = self.fn
        if lines:
            shift = fn.depth - lines[0][0]
            fn.lines.extend((depth + shift, text) for depth, text in lines)

    _SYS_VALUE = ("$countones", "$onehot", "$onehot0", "$signed", "$unsigned")

    def _value_syscall(self, expr: ast.SysCall, mark: int) -> _Result:
        name = expr.name
        text, width, const = self.expr(expr.args[0])
        if name in ("$signed", "$unsigned"):
            return text, width, const
        a = self.name(text)
        if name == "$countones":
            return self.fold(mark, self.temp(f"{a}.count_ones()"), 32, const)
        test = "== 1" if name == "$onehot" else "<= 1"
        out = self.temp(f"_X1 if {a}.xmask else "
                        f"(_T if _pop({a}.value) {test} else _F)")
        return self.fold(mark, out, 1, const)

    def _syscall(self, expr: ast.SysCall, mark: int) -> _Result:
        if expr.name in self._SYS_VALUE:
            return self._value_syscall(expr, mark)
        # The RTL context has no temporal functions; only the property
        # monitor (repro.sva.monitor) defines them.
        return self.raise_(
            EvalError,
            f"system function {expr.name} not available in this context")


def _differs(a: str, b: str) -> str:
    """Value inequality of two same-width slot values."""
    return f"{a}.value != {b}.value or {a}.xmask != {b}.xmask"


class _RtlEmitter(_Emitter):
    """Emits ``settle(v)`` and ``edge(v)`` for one design.

    Slot ``i`` is the local ``s<i>``; inside a procedural block its
    blocking scratch value is ``b<i>`` (``self.read`` maps the block's
    blocking targets to them) and its pending non-blocking value
    ``n<i>`` (``None`` until written).
    """

    def __init__(self, design: Design):
        super().__init__(design)
        self.read: Dict[int, str] = {}

    def _ident(self, expr: ast.Ident) -> _Result:
        name = expr.name
        if name in self.params:
            return self._param(name)
        slot = self.slots.get(name)
        if slot is None:
            return self.raise_(EvalError, f"no such signal '{name}'")
        return self._scratch(slot), self.widths[slot], False

    def _scratch(self, slot: int) -> str:
        return self.read.get(slot, f"s{slot}")

    def _resized(self, text: str, width, target_width: int) -> str:
        if width == target_width:
            return text
        return f"{self.name(text)}.resize({target_width})"

    # -- assignment targets ------------------------------------------------

    def _write(self, target: ast.Expr, blocking: bool, value: str,
               width) -> None:
        """Write ``value`` to ``target``.

        Blocking writes land in the scratch local (and read-modify-writes
        read it); non-blocking writes land in ``n<slot>``, with the
        current value read from there first, then from scratch —
        mirroring the interpreter's ``sink``/``base_env`` pair.
        """
        t = type(target)
        if t is ast.Ident:
            slot = self.slots[target.name]
            dest = self._scratch(slot) if blocking else f"n{slot}"
            self.line(f"{dest} = "
                      f"{self._resized(value, width, self.widths[slot])}")
            return
        if t in (ast.BitSelect, ast.PartSelect):
            try:
                name = _base_name(target)
            except SimulationError as exc:
                self.raise_(SimulationError, str(exc))
                return
            slot = self.slots[name]
            value = self.name(value)
            unknown = self.const(FourState.unknown(self.widths[slot]))
            if t is ast.BitSelect:
                at = self.name(self.expr(target.index)[0])
                hi = lo = f"{at}.value"
                x = f"{at}.xmask"
                piece = self._resized(value, width, 1)
            else:
                hi = self.name(self.expr(target.msb)[0])
                lo = self.name(self.expr(target.lsb)[0])
                x = f"{hi}.xmask or {lo}.xmask"
                piece = (f"{value}.resize(abs({hi}.value - {lo}.value) + 1)")
                hi, lo = f"{hi}.value", f"{lo}.value"
            scratch = self._scratch(slot)
            if blocking:
                dest = current = scratch
            else:
                dest = f"n{slot}"
                current = f"({dest} if {dest} is not None else {scratch})"
            self.line(f"{dest} = {unknown} if {x} else "
                      f"{current}.replace_slice({hi}, {lo}, {piece})")
            return
        if t is ast.Concat:
            # {a, b} = value : split from the high end, part by part.
            value = self.name(value)
            offset = self.temp(f"{value}.width")
            for part in target.parts:
                part_width = self._target_width(part)
                if part_width is None:
                    return
                static = part_width.isdigit()
                top = (int(part_width) - 1 if static
                       else f"{part_width} - 1")
                self.line(f"{offset} -= {part_width}")
                piece = self.temp(
                    f"{value}.slice(min({offset} + {top}, "
                    f"{value}.width - 1), max({offset}, 0))"
                    f".resize({part_width})")
                self._write(part, blocking, piece,
                            int(part_width) if static else None)
            return
        self.raise_(SimulationError,
                    f"unsupported assignment target {type(target).__name__}")

    def _target_width(self, target: ast.Expr) -> Optional[str]:
        """A concat part's width as text, as ``Simulator._target_width``
        takes it (select bounds read committed, not scratch, values); or
        ``None`` after emitting its raise when the part is no target."""
        t = type(target)
        if t is ast.Ident:
            return str(self.widths[self.slots[target.name]])
        if t is ast.BitSelect:
            return "1"
        if t is ast.PartSelect:
            read, self.read = self.read, {}
            msb, _, mc = self.expr(target.msb)
            lsb, _, lc = self.expr(target.lsb)
            self.read = read
            if mc and lc:
                return str(abs(self.const_value(msb).value
                               - self.const_value(lsb).value) + 1)
            return self.temp(f"abs({self.name(msb)}.value - "
                             f"{self.name(lsb)}.value) + 1")
        if t is ast.Concat:
            widths = []
            for part in target.parts:
                width = self._target_width(part)
                if width is None:
                    return None
                widths.append(width)
            return self.temp(" + ".join(widths) or "0")
        self.raise_(SimulationError, "bad assignment target")
        return None

    # -- statements --------------------------------------------------------

    def stmt(self, stmt: ast.Stmt) -> None:
        t = type(stmt)
        if t is ast.Block:
            for child in stmt.stmts:
                self.stmt(child)
            return
        if t is ast.Assignment:
            value, width, _ = self.expr(stmt.value)
            self._write(stmt.target, stmt.blocking, value, width)
            return
        if t is ast.If:
            cond = self.name(self.expr(stmt.cond)[0])
            inner = self.open(f"if {cond}.value:")
            self.stmt(stmt.then)
            self.close(inner)
            if stmt.other is not None:
                inner = self.open(f"elif not {cond}.xmask:")
                self.stmt(stmt.other)
                self.close(inner)
            poison = self._poison_entries(stmt)
            if poison:
                inner = self.open(f"elif {cond}.xmask:")
                for slot, xval in poison:
                    self.line(f"n{slot} = {self.const(xval)}")
                self.close(inner)
            return
        if t is ast.Case:
            self._case(stmt)
            return
        if t is ast.SysTaskCall:
            return  # $display/$finish are inert in the cycle engine.
        self.raise_(SimulationError, f"cannot execute {type(stmt).__name__}")

    def _poison_entries(self, stmt: ast.If):
        """(slot, X-constant) pairs for every target of both branches,
        in the interpreter's poisoning order."""
        entries = []
        seen = set()
        branches = [stmt.then] + ([stmt.other] if stmt.other is not None
                                  else [])
        for branch in branches:
            for inner in _walk_stmts(branch):
                if isinstance(inner, ast.Assignment):
                    for name in _target_name_list(inner.target):
                        if name not in seen:
                            seen.add(name)
                            slot = self.slots[name]
                            entries.append((slot, FourState.unknown(
                                self.widths[slot])))
        return entries

    def _case(self, stmt: ast.Case) -> None:
        subject, sw, _ = self.expr(stmt.subject)
        s = self.name(subject)
        wildcard = stmt.kind in ("casez", "casex")
        fn = self.fn
        items = []  # (labels, body); a label is (lines, text, constant)
        default = None
        for item in stmt.items:
            if item.is_default:
                default = item.body
                continue
            labels = []
            for label in item.labels:
                mark = len(fn.lines)
                text, _, const = self.expr(label)
                labels.append((fn.lines[mark:], text, const))
                del fn.lines[mark:]
            items.append((labels, item.body))
        if all(const for labels, _ in items for _, _, const in labels):
            # Constant labels: evaluating them is free of effects, so the
            # subject's X check is hoisted (an X subject matches none).
            key = self.temp(f"-1 if {s}.xmask else {s}.value")
            tests = [" or ".join(self._const_match(key, s, sw, wildcard, text)
                                 for _, text, _ in labels) or "False"
                     for labels, _ in items]
        else:
            # Labels with effects run lazily, in order, until one matches.
            match = self.temp("0")
            for number, (labels, _) in enumerate(items, 1):
                for lines, text, _ in labels:
                    inner = self.open(f"if not {match}:")
                    self._splice(lines)
                    label = self.name(text)
                    if wildcard:
                        test = (f"not {s}.xmask and not (({s}.value ^ "
                                f"{label}.value) & ~{label}.xmask & ((1 << max("
                                f"{s}.width, {label}.width)) - 1))")
                    else:
                        test = (f"not {s}.xmask and not {label}.xmask and "
                                f"{s}.value == {label}.value")
                    self.line(f"if {test}: {match} = {number}")
                    self.close(inner)
            tests = [f"{match} == {number}"
                     for number in range(1, len(items) + 1)]
        keyword = "if"
        for test, (_, body) in zip(tests, items):
            inner = self.open(f"{keyword} {test}:")
            self.stmt(body)
            self.close(inner)
            keyword = "elif"
        if default is not None:
            inner = self.open("else:" if items else "if True:")
            self.stmt(default)
            self.close(inner)

    def _const_match(self, key: str, subject: str, subject_width,
                     wildcard: bool, label: str) -> str:
        """The test of a constant case label against ``key`` (the
        subject's value, or -1 when it has X bits)."""
        value = self.const_value(label)
        if not wildcard:
            # -2 never equals a key.
            return f"{key} == {self.const(-2 if value.has_x else value.value)}"
        # Treat x bits in the label as wildcards.
        if subject_width is None:
            care = (f"{self.const(~value.xmask)} & ((1 << max({subject}.width, "
                    f"{value.width})) - 1)")
        else:
            care = self.const(
                ~value.xmask & ((1 << max(subject_width, value.width)) - 1))
        return (f"({key} >= 0 and not (({key} ^ {self.const(value.value)})"
                f" & {care}))")

    # -- combinational / sequential items ----------------------------------

    def _block_slots(self, block: ast.AlwaysBlock):
        """(targets, blocking targets, non-blocking/poisoned targets) of a
        procedural block, as ordered, de-duplicated slot lists."""
        targets, blocking, pending = {}, {}, {}
        for stmt in _walk_stmts(block.body):
            if isinstance(stmt, ast.Assignment):
                for name in _target_name_list(stmt.target):
                    slot = self.slots[name]
                    targets[slot] = None
                    (blocking if stmt.blocking else pending)[slot] = None
            elif isinstance(stmt, ast.If):
                for slot, _ in self._poison_entries(stmt):
                    pending[slot] = None
        return list(targets), list(blocking), list(pending)

    def _clear(self, slots) -> None:
        """No pending non-blocking value yet for ``slots``."""
        if slots:
            self.line(" = ".join(f"n{slot}" for slot in slots) + " = None")

    def _commit(self, slot: int, new: str, track: bool) -> None:
        if track:
            self.line(f"if {_differs(new, f's{slot}')}: "
                      f"v[{slot}] = s{slot} = {new}; ch = 1")
        else:
            self.line(f"v[{slot}] = s{slot} = {new}")

    def _assign_step(self, item, track: bool) -> None:
        """Continuous assign; ``track`` sets ``ch`` when a value changes."""
        value, width, _ = self.expr(item.value)
        target = item.target
        if type(target) is ast.Ident:
            slot = self.slots[target.name]
            self._commit(slot, self.name(
                self._resized(value, width, self.widths[slot])), track)
            return
        slots = list(dict.fromkeys(self.slots[name]
                                   for name in _target_name_list(target)))
        self._clear(slots)
        self._write(target, False, value, width)
        for slot in slots:
            inner = self.open(f"if n{slot} is not None:")
            self._commit(slot, f"n{slot}", track)
            self.close(inner)

    def _comb_block_step(self, block: ast.AlwaysBlock, track: bool) -> None:
        targets, blocking, pending = self._block_slots(block)
        for slot in blocking:
            self.line(f"b{slot} = s{slot}")
        self._clear(pending)
        self.read = {slot: f"b{slot}" for slot in blocking}
        self.stmt(block.body)
        # In comb blocks both '=' and '<=' behave combinationally.
        for slot in targets:
            new = self._scratch(slot)
            if slot in pending:
                new = self.temp(f"n{slot} if n{slot} is not None else {new}")
            self._commit(slot, new, track)
        self.read = {}

    def _seq_block(self, block: ast.AlwaysBlock) -> List[int]:
        """One clocked block into ``edge``; returns its pending slots."""
        _, blocking, pending = self._block_slots(block)
        # Only blocking targets get a scratch local: the body reads every
        # other signal's pre-edge value.
        for slot in blocking:
            self.line(f"b{slot} = s{slot}")
        self.read = {slot: f"b{slot}" for slot in blocking}
        self.stmt(block.body)
        self.read = {}
        # Blocking writes inside clocked blocks also commit at the edge,
        # but only for state-holding signals.
        committed = [slot for slot in blocking
                     if self.design.symbols[self.names[slot]].is_state]
        for slot in committed:
            differs = _differs(f"b{slot}", f"s{slot}")
            self.line(f"if n{slot} is None and ({differs}): n{slot} = b{slot}")
        return pending + committed

    # -- comb scheduling ---------------------------------------------------

    def _expr_reads(self, expr: ast.Expr, out: set) -> None:
        if isinstance(expr, ast.Ident):
            if expr.name not in self.params and expr.name in self.slots:
                out.add(expr.name)
            return
        for child in expr.children():
            if isinstance(child, ast.Expr):
                self._expr_reads(child, out)

    def _target_reads(self, target: ast.Expr, out: set) -> None:
        """Signals a *write* to ``target`` reads: select indices/bounds,
        plus the base itself for read-modify-write slice updates."""
        if isinstance(target, ast.BitSelect):
            self._expr_reads(target.index, out)
            self._target_reads(target.base, out)
            if isinstance(target.base, ast.Ident):
                out.add(target.base.name)
        elif isinstance(target, ast.PartSelect):
            self._expr_reads(target.msb, out)
            self._expr_reads(target.lsb, out)
            self._target_reads(target.base, out)
            if isinstance(target.base, ast.Ident):
                out.add(target.base.name)
        elif isinstance(target, ast.Concat):
            for part in target.parts:
                self._target_reads(part, out)

    def _stmt_reads(self, stmt: ast.Stmt, out: set) -> None:
        for inner in _walk_stmts(stmt):
            if isinstance(inner, ast.Assignment):
                self._expr_reads(inner.value, out)
                self._target_reads(inner.target, out)
            elif isinstance(inner, ast.If):
                self._expr_reads(inner.cond, out)
            elif isinstance(inner, ast.Case):
                self._expr_reads(inner.subject, out)
                for item in inner.items:
                    for label in item.labels:
                        self._expr_reads(label, out)

    def _comb_order(self, items) -> "Tuple[List[int], bool]":
        """Topological evaluation order over ``(reads, writes)`` items.

        Returns ``(order, acyclic)``.  ``acyclic`` means the dependency
        graph — *including* self-edges — is a single-driver DAG, so one
        sweep in ``order`` reaches the fixed point and the settle loop
        can skip its confirmation pass.  Falls back to source order (the
        interpreter's sweep order, which the fixed-point loop makes
        equally correct) when a signal has multiple drivers or the graph
        has a multi-item cycle.
        """
        source_order = list(range(len(items)))
        writer: Dict[str, int] = {}
        for index, (_, writes) in enumerate(items):
            for name in writes:
                if name in writer and writer[name] != index:
                    return source_order, False  # multiple drivers
                writer[name] = index
        dependents: Dict[int, List[int]] = {i: [] for i in source_order}
        indegree = [0] * len(items)
        self_dependent = False
        for index, (reads, _) in enumerate(items):
            for name in reads:
                producer = writer.get(name)
                if producer == index:
                    # Self-edge: ignored for ordering (the fixed-point
                    # loop resolves it), but it voids single-pass settling.
                    self_dependent = True
                elif producer is not None:
                    dependents[producer].append(index)
                    indegree[index] += 1
        ready = sorted(i for i in source_order if indegree[i] == 0)
        order: List[int] = []
        while ready:
            index = ready.pop(0)
            order.append(index)
            changed = False
            for dep in dependents[index]:
                indegree[dep] -= 1
                if indegree[dep] == 0:
                    ready.append(dep)
                    changed = True
            if changed:
                ready.sort()
        if len(order) != len(items):
            return source_order, False  # combinational cycle
        return order, not self_dependent

    # -- whole design ------------------------------------------------------

    def _begin(self) -> None:
        """Start a function over ``v``: every slot unpacked into ``s<i>``."""
        self.fn = _Fn()
        names = [f"s{i}" for i in range(len(self.names))]
        self.line(f"{', '.join(names)}{',' if len(names) == 1 else ''} = v")

    def _finish(self, name: str):
        fn = self.fn
        text = fn.text(f"def {name}(v):")
        exec(_code(text), fn.ns)
        return fn.ns[name], text

    def lower(self) -> "CompiledProgram":
        design = self.design
        comb_items = []  # (reads, writes, emit(track))
        for item in design.assigns:
            reads: set = set()
            self._expr_reads(item.value, reads)
            self._target_reads(item.target, reads)
            writes = {name for name in _target_name_list(item.target)
                      if name in self.slots}
            comb_items.append(
                (reads, writes,
                 lambda track, item=item: self._assign_step(item, track)))
        for block in design.comb_blocks:
            reads = set()
            self._stmt_reads(block.body, reads)
            writes = {self.names[slot] for slot in self._block_slots(block)[0]}
            comb_items.append(
                (reads, writes,
                 lambda track, block=block:
                     self._comb_block_step(block, track)))
        order, acyclic = self._comb_order([(reads, writes)
                                           for reads, writes, _ in comb_items])
        self._begin()
        # Acyclic programs settle in one compare-free sweep, so their
        # steps skip the changed-value bookkeeping entirely.
        if acyclic:
            for index in order:
                comb_items[index][2](False)
        else:
            loop = self.open(f"for _ in range({_MAX_SETTLE_ITERATIONS}):")
            self.line("ch = 0")
            for index in order:
                comb_items[index][2](True)
            self.line("if not ch: return")
            self.close(loop)
            self.raise_(SimulationError,
                        f"combinational logic failed to settle within "
                        f"{_MAX_SETTLE_ITERATIONS} iterations (loop?)")
        settle, settle_text = self._finish("settle")

        self._begin()
        unpack = self.fn.lines.pop()
        pending: Dict[int, None] = {}
        for block in design.seq_blocks:
            pending.update(dict.fromkeys(self._seq_block(block)))
        body, self.fn.lines = self.fn.lines, [unpack]
        self._clear(pending)
        self.fn.lines.extend(body)
        for slot in pending:
            self.line(f"if n{slot} is not None: v[{slot}] = n{slot}")
        edge, edge_text = self._finish("edge")

        # Reset-time environment: run the interpreter's own reset once
        # (declaration inits + initial blocks) so startup state — and any
        # error it raises — is identical by construction.
        interp = Simulator(design)
        initial_values = tuple(interp.env[name] for name in self.names)

        return CompiledProgram(
            design=design, names=self.names, slots=self.slots,
            widths=self.widths, initial_values=initial_values,
            settle=settle, edge=edge, source=settle_text + "\n" + edge_text)


class CompiledProgram:
    """The reusable, immutable result of compiling one design."""

    __slots__ = ("_design", "names", "slots", "widths", "initial_values",
                 "settle", "edge", "source", "trace_names",
                 "reset_active_drive", "reset_inactive_drive", "zero_drive",
                 "reset_inputs", "inactive_ints", "drive_cache")

    def __init__(self, design: Design, names, slots, widths, initial_values,
                 settle, edge, source=""):
        # Weak: _PROGRAMS is keyed weakly by the design, so a strong
        # reference from its value would keep every design alive.
        self._design = weakref.ref(design)
        self.names = names
        self.slots = slots
        self.widths = widths
        self.initial_values = initial_values
        #: ``settle(v)`` and ``edge(v)`` over a slot list, and the emitted
        #: text they were compiled from.
        self.settle = settle
        self.edge = edge
        self.source = source
        self.trace_names = sorted(design.symbols)
        active = reset_values(design, active=True)
        inactive = reset_values(design, active=False)
        zeros = {s.name: 0 for s in design.free_inputs()}
        self.zero_drive = tuple(
            (slots[name], FourState(widths[slots[name]], value))
            for name, value in zeros.items())
        self.reset_active_drive = tuple(
            (slots[name], FourState(widths[slots[name]], value))
            for name, value in active.items())
        self.reset_inactive_drive = tuple(
            (slots[name], FourState(widths[slots[name]], value))
            for name, value in inactive.items())
        self.reset_inputs = {**zeros, **active}
        self.inactive_ints = inactive
        #: (slot, int) -> FourState memo for stimulus vectors.  Input
        #: values repeat heavily across cycles and stimuli; FourState is
        #: immutable, so sharing instances is free.  Benign data race
        #: under threads (worst case: a duplicate construction).
        self.drive_cache: Dict[Tuple[int, int], FourState] = {}

    @property
    def design(self) -> Design:
        return self._design()


class CompiledSimulator(RunLoop):
    """Drop-in ``run``/``run_iter`` replacement backed by a compiled program.

    Mirrors :class:`repro.sim.simulator.Simulator` byte for byte: same
    traces, same exceptions, same messages.  One instance is cheap — all
    heavy lifting lives in the shared :class:`CompiledProgram`.
    """

    def __init__(self, program: CompiledProgram):
        self.program = program
        self.design = program.design
        self.values: List[FourState] = list(program.initial_values)
        self.trace_names = program.trace_names
        #: Optional :class:`repro.cov.CoverageSink` — same protocol as the
        #: interpreter's, fed from the slot list instead of a dict.
        self.cov = None

    # -- environment -----------------------------------------------------

    def _drive(self, vector: Dict[str, int]) -> None:
        program = self.program
        slots = program.slots
        cache = program.drive_cache
        values = self.values
        for name, value in vector.items():
            slot = slots.get(name)
            if slot is None:
                raise SimulationError(f"cannot drive unknown input '{name}'")
            key = (slot, value)
            cached = cache.get(key)
            if cached is None:
                cached = cache[key] = FourState(program.widths[slot], value)
            values[slot] = cached

    def _drive_pairs(self, pairs) -> None:
        values = self.values
        for slot, value in pairs:
            values[slot] = value

    # -- cycle engine ----------------------------------------------------

    def tick(self) -> None:
        """One clock edge: evaluate sequential blocks, commit, settle."""
        program = self.program
        program.edge(self.values)
        program.settle(self.values)

    # -- run-loop primitives (see repro.sim.runloop) ----------------------

    def _start(self) -> None:
        self.values = list(self.program.initial_values)

    def _cycle(self, vector: Optional[Dict[str, int]]):
        """Drive one cycle's inputs (``None``: a reset cycle) and settle."""
        program = self.program
        if vector is None:
            self._drive_pairs(program.zero_drive)
            self._drive_pairs(program.reset_active_drive)
            inputs = dict(program.reset_inputs)
        else:
            self._drive(vector)
            self._drive_pairs(program.reset_inactive_drive)
            inputs = {**vector, **program.inactive_ints}
        program.settle(self.values)
        return dict(zip(program.names, self.values)), inputs

    def _load(self, snapshot: Dict[str, FourState]) -> None:
        self.values = [snapshot[name] for name in self.program.names]

    def _save(self) -> List[FourState]:
        return list(self.values)

    def _restore(self, state: List[FourState]) -> None:
        self.values = list(state)


# -- program cache / factory --------------------------------------------------

_PROGRAM_LOCK = threading.Lock()
# Design instance -> CompiledProgram.  CompileCache shares one immutable
# Design per source content hash, so identity keying is content keying
# in-process; weak keys let evicted designs free their programs.
_PROGRAMS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

_COUNTERS: Dict[str, int] = {
    "programs_compiled": 0,
    "program_cache_hits": 0,
}


def sim_program_counters() -> Dict[str, int]:
    """Metrics provider: program-cache and code-cache counters."""
    counters = dict(_COUNTERS)
    counters["code_cache_hits"] = _CODE.hits
    counters["code_cache_misses"] = _CODE.misses
    return counters


metrics.register_provider("sim_program", sim_program_counters)


def compile_program(design: Design) -> CompiledProgram:
    """Emit and compile ``design`` (memoized per design instance).

    Propagates whatever the interpreter's own reset would raise (e.g.
    ``EvalError`` from a bad initializer) without caching it.
    """
    with _PROGRAM_LOCK:
        cached = _PROGRAMS.get(design)
    if cached is not None:
        _COUNTERS["program_cache_hits"] += 1
        return cached
    start = perf_counter()
    try:
        program = _RtlEmitter(design).lower()
        _COUNTERS["programs_compiled"] += 1
        with _PROGRAM_LOCK:
            _PROGRAMS[design] = program
        return program
    finally:
        metrics.add_time("compile_program", perf_counter() - start)


def make_simulator(design: Design) -> CompiledSimulator:
    """The simulator every bounded check runs: ``design``'s compiled
    program (see :func:`repro.sva.reference.reference_tier` for the
    interpreter oracle)."""
    return CompiledSimulator(compile_program(design))
