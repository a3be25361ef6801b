"""Compiled simulation tier: lower a Design once, run it many times.

The interpreter (:class:`repro.sim.simulator.Simulator`) re-walks the AST
with per-node dispatch and dict-keyed environments once per signal per
cycle per stimulus.  This module lowers an elaborated design into a flat
evaluation program exactly once:

- every signal is mapped to an integer slot in a flat list (no dict
  lookups on the hot path);
- every expression becomes a dispatch-free Python closure with constants
  folded and widths/masks precomputed;
- combinational assigns and ``always @(*)`` blocks are pre-sorted into
  dependency (topological) order so the settle loop converges in the
  minimum number of sweeps;
- the reset-time environment (declaration inits + ``initial`` blocks) is
  captured once by running the interpreter's own reset, so per-run setup
  is a single list copy.

The program is cached per :class:`Design` *instance*; because
:class:`repro.verilog.compile.CompileCache` shares one immutable design
object per source content hash, instance identity coincides with content
identity in-process — the program cache is effectively content-addressed
alongside ``CompileCache`` without attaching unpicklable closures to the
(disk-persisted) compile results.

Semantics contract: a :class:`CompiledSimulator` produces byte-identical
traces — same snapshots, same error messages at the same points — as the
interpreter on every supported design.  Constructs the lowerer does not
handle raise :class:`UnsupportedDesign` at compile time and
:func:`make_simulator` silently falls back to the interpreter, so the
contract holds by construction for the rest.
"""

from __future__ import annotations

import threading
import weakref
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

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
from repro.verilog import ast
from repro.verilog.elaborator import Design, _walk_stmts

SIM_MODES = ("compiled", "interp")

_TRUE = FourState.from_bool(True)
_FALSE = FourState.from_bool(False)
_X1 = FourState.unknown(1)


class UnsupportedDesign(Exception):
    """The lowerer cannot compile this design; use the interpreter."""


# Signature conventions (all closures are built once per design):
#   expr closure:  fn(env)               -> FourState   (env: List[FourState])
#   stmt closure:  fn(scratch, nba)      -> None
#   writer:        fn(scratch, nba, value) -> None
#   comb step:     fn(env)               -> bool (changed)
#   seq step:      fn(env, nba)          -> None
ExprFn = Callable[[List[FourState]], FourState]


class _Lowerer:
    """One-shot compiler from an elaborated design to closures."""

    def __init__(self, design: Design):
        self.design = design
        self.params = design.params
        self.names: Tuple[str, ...] = tuple(design.symbols)
        self.slots: Dict[str, int] = {name: i for i, name in enumerate(self.names)}
        self.widths: Tuple[int, ...] = tuple(
            sym.width for sym in design.symbols.values())

    # -- expressions -------------------------------------------------------

    def _fold(self, fn: ExprFn, is_const: bool) -> Tuple[ExprFn, bool]:
        """Evaluate a closed expression once at compile time.

        Anything the evaluation raises (EvalError, arithmetic errors) keeps
        the closure dynamic so the error surfaces at run time exactly where
        the interpreter would raise it.
        """
        if not is_const:
            return fn, False
        try:
            value = fn(None)
        except Exception:
            return fn, False
        return (lambda env: value), True

    @staticmethod
    def _raiser(exc_type, message: str) -> ExprFn:
        def fn(env):
            raise exc_type(message)
        return fn

    _UNARY_METHODS = {
        "~": FourState.bit_not, "!": FourState.log_not,
        "-": FourState.negate, "&": FourState.reduce_and,
        "|": FourState.reduce_or, "^": FourState.reduce_xor,
    }

    def _lower_ident(self, expr: ast.Ident) -> Tuple[ExprFn, bool]:
        """Overridable binding: subclasses redefine what ``env`` is.

        The SVA property lowerer (:mod:`repro.sva.monitor`) reuses every
        operator combinator above a trace-backed environment by replacing
        only this method and :meth:`_lower_syscall`.
        """
        name = expr.name
        if name in self.params:
            value = FourState(32, self.params[name] & 0xFFFFFFFF)
            return (lambda env: value), True
        slot = self.slots.get(name)
        if slot is None:
            return self._raiser(EvalError, f"no such signal '{name}'"), False
        return (lambda env: env[slot]), False

    def _lower_expr(self, expr: ast.Expr) -> Tuple[ExprFn, bool]:
        t = type(expr)
        if t is ast.Number:
            width = expr.width or 32
            value = FourState(width, expr.value, expr.xmask)
            return (lambda env: value), True
        if t is ast.Ident:
            return self._lower_ident(expr)
        if t is ast.Unary:
            operand, const = self._lower_expr(expr.operand)
            op = expr.op
            if op == "+":
                return operand, const
            # 1-bit-result operators return the three shared singletons
            # instead of allocating: same canonical values, zero garbage.
            if op == "!":
                def log_not(env):
                    v = operand(env)
                    if v.value != 0:
                        return _FALSE
                    if v.xmask == 0:
                        return _TRUE
                    return _X1
                return self._fold(log_not, const)
            if op == "&":
                def reduce_and(env):
                    v = operand(env)
                    if (v.value | v.xmask) != (1 << v.width) - 1:
                        return _FALSE
                    if v.xmask:
                        return _X1
                    return _TRUE
                return self._fold(reduce_and, const)
            if op == "|":
                def reduce_or(env):
                    v = operand(env)
                    if v.value:
                        return _TRUE
                    if v.xmask:
                        return _X1
                    return _FALSE
                return self._fold(reduce_or, const)
            if op == "^":
                def reduce_xor(env):
                    v = operand(env)
                    if v.xmask:
                        return _X1
                    return _TRUE if bin(v.value).count("1") & 1 else _FALSE
                return self._fold(reduce_xor, const)
            method = self._UNARY_METHODS.get(op)
            if method is None:
                return self._raiser(
                    EvalError, f"unknown unary operator {op!r}"), False
            return self._fold(lambda env: method(operand(env)), const)
        if t is ast.Binary:
            return self._lower_binary(expr)
        if t is ast.Ternary:
            cond, cc = self._lower_expr(expr.cond)
            then, tc = self._lower_expr(expr.then)
            other, oc = self._lower_expr(expr.other)

            def ternary(env):
                select = cond(env)
                if select.is_true():
                    return then(env)
                if select.is_false():
                    return other(env)
                # Unknown select: merge to X where the branches differ.
                a, b = then(env), other(env)
                width = max(a.width, b.width)
                a, b = a.resize(width), b.resize(width)
                differ = (a.value ^ b.value) | a.xmask | b.xmask
                return FourState(width, a.value, differ)

            return self._fold(ternary, cc and tc and oc)
        if t is ast.BitSelect:
            base, bc = self._lower_expr(expr.base)
            index, ic = self._lower_expr(expr.index)

            def bitselect(env):
                value = base(env)
                at = index(env)
                if at.has_x:
                    return _X1
                i = at.value
                if i >= value.width or (value.xmask >> i) & 1:
                    return _X1
                return _TRUE if (value.value >> i) & 1 else _FALSE

            return self._fold(bitselect, bc and ic)
        if t is ast.PartSelect:
            base, bc = self._lower_expr(expr.base)
            msb, mc = self._lower_expr(expr.msb)
            lsb, lc = self._lower_expr(expr.lsb)

            def partselect(env):
                value = base(env)
                hi, lo = msb(env), lsb(env)
                if hi.has_x or lo.has_x:
                    return FourState.unknown(
                        max(1, abs(hi.value - lo.value) + 1))
                return value.slice(hi.value, lo.value)

            return self._fold(partselect, bc and mc and lc)
        if t is ast.Concat:
            if not expr.parts:
                return self._raiser(EvalError, "empty concatenation"), False
            parts = [self._lower_expr(part) for part in expr.parts]
            fns = tuple(fn for fn, _ in parts)
            if len(fns) == 1:
                return parts[0]

            def concat(env):
                out = fns[0](env)
                for fn in fns[1:]:
                    out = out.concat(fn(env))
                return out

            return self._fold(concat, all(c for _, c in parts))
        if t is ast.Repeat:
            count, cc = self._lower_expr(expr.count)
            value, vc = self._lower_expr(expr.value)

            def repeat(env):
                times = count(env)
                if times.has_x:
                    raise EvalError("replication count is unknown")
                return value(env).repeat(max(times.value, 1))

            return self._fold(repeat, cc and vc)
        if t is ast.SysCall:
            return self._lower_syscall(expr)
        return self._raiser(
            EvalError, f"cannot evaluate {type(expr).__name__}"), False

    _CMP_OPS = {"<": int.__lt__, "<=": int.__le__,
                ">": int.__gt__, ">=": int.__ge__}

    def _lower_binary(self, expr: ast.Binary) -> Tuple[ExprFn, bool]:
        lhs, lc = self._lower_expr(expr.lhs)
        rhs, rc = self._lower_expr(expr.rhs)
        op = expr.op
        # 1-bit-result operators are inlined against FourState's canonical
        # representation (value bits are zero wherever xmask is set) and
        # return the shared singletons — the hottest allocation sites in
        # compiled programs.  Verdicts are identical to the interpreter's
        # eq/ne/case_eq/_cmp/log_and/log_or methods.
        if op in ("~^", "^~"):
            fn = lambda env: lhs(env).bit_xor(rhs(env)).bit_not()
        elif op in ("==", "!="):
            when_eq, when_ne = (_TRUE, _FALSE) if op == "==" else (_FALSE, _TRUE)

            def fn(env):
                a = lhs(env)
                b = rhs(env)
                if a.width != b.width:
                    w = a.width if a.width > b.width else b.width
                    a = a.resize(w)
                    b = b.resize(w)
                x = a.xmask | b.xmask
                if x:
                    if (a.value ^ b.value) & ~x:
                        return when_ne
                    return _X1
                return when_eq if a.value == b.value else when_ne
        elif op in ("===", "!=="):
            when_eq, when_ne = (_TRUE, _FALSE) if op == "===" else (_FALSE, _TRUE)

            def fn(env):
                a = lhs(env)
                b = rhs(env)
                if a.width != b.width:
                    w = a.width if a.width > b.width else b.width
                    a = a.resize(w)
                    b = b.resize(w)
                if a.value == b.value and a.xmask == b.xmask:
                    return when_eq
                return when_ne
        elif op in self._CMP_OPS:
            cmp = self._CMP_OPS[op]

            def fn(env):
                a = lhs(env)
                b = rhs(env)
                if a.xmask or b.xmask:
                    return _X1
                return _TRUE if cmp(a.value, b.value) else _FALSE
        elif op == "&&":
            def fn(env):
                a = lhs(env)
                b = rhs(env)
                if ((a.value == 0 and a.xmask == 0)
                        or (b.value == 0 and b.xmask == 0)):
                    return _FALSE
                if a.value != 0 and b.value != 0:
                    return _TRUE
                return _X1
        elif op == "||":
            def fn(env):
                a = lhs(env)
                b = rhs(env)
                if a.value != 0 or b.value != 0:
                    return _TRUE
                if a.xmask == 0 and b.xmask == 0:
                    return _FALSE
                return _X1
        else:
            name = Evaluator._BINARY_DISPATCH.get(op)
            if name is None:
                return self._raiser(
                    EvalError, f"unknown binary operator {op!r}"), False
            method = getattr(FourState, name)
            fn = lambda env: method(lhs(env), rhs(env))
        return self._fold(fn, lc and rc)

    def _lower_syscall(self, expr: ast.SysCall) -> Tuple[ExprFn, bool]:
        name = expr.name
        if name in ("$countones", "$onehot", "$onehot0", "$signed",
                    "$unsigned"):
            if not expr.args:
                raise UnsupportedDesign(f"{name} with no arguments")
            arg, const = self._lower_expr(expr.args[0])
            if name == "$countones":
                return self._fold(lambda env: arg(env).count_ones(), const)
            if name in ("$signed", "$unsigned"):
                return arg, const
            exact = name == "$onehot"

            def onehot(env):
                value = arg(env)
                if value.has_x:
                    return _X1
                ones = bin(value.value).count("1")
                if exact:
                    return _TRUE if ones == 1 else _FALSE
                return _TRUE if ones <= 1 else _FALSE

            return self._fold(onehot, const)
        # The RTL context has no sys_hook; temporal functions only exist in
        # the property monitor, which keeps using the interpreter.
        return self._raiser(
            EvalError,
            f"system function {name} not available in this context"), False

    # -- assignment targets ------------------------------------------------

    def _lower_write(self, target: ast.Expr, blocking: bool):
        """Build ``write(scratch, nba, value)``.

        Blocking writes land in ``scratch`` (and read-modify-writes read
        it); non-blocking writes land in ``nba`` with current values read
        from ``nba`` first, then ``scratch`` — mirroring the interpreter's
        ``sink``/``base_env`` pair.
        """
        t = type(target)
        if t is ast.Ident:
            sym = self.design.symbols.get(target.name)
            if sym is None:
                message = f"write to unknown signal '{target.name}'"

                def bad_write(scratch, nba, value):
                    raise SimulationError(message)
                return bad_write
            slot = self.slots[target.name]
            width = sym.width
            if blocking:
                def write(scratch, nba, value):
                    scratch[slot] = value.resize(width)
            else:
                def write(scratch, nba, value):
                    nba[slot] = value.resize(width)
            return write
        if t in (ast.BitSelect, ast.PartSelect):
            try:
                name = _base_name(target)
            except SimulationError as exc:
                message = str(exc)

                def bad_write(scratch, nba, value):
                    raise SimulationError(message)
                return bad_write
            sym = self.design.symbols.get(name)
            if sym is None:
                raise UnsupportedDesign(
                    f"select write to undeclared signal '{name}'")
            slot = self.slots[name]
            width = sym.width
            unknown = FourState.unknown(width)
            if t is ast.BitSelect:
                index, _ = self._lower_expr(target.index)
                if blocking:
                    def write(scratch, nba, value):
                        at = index(scratch)
                        current = scratch[slot]
                        if at.has_x:
                            scratch[slot] = unknown
                        else:
                            scratch[slot] = current.replace_slice(
                                at.value, at.value, value.resize(1))
                else:
                    def write(scratch, nba, value):
                        at = index(scratch)
                        current = nba.get(slot)
                        if current is None:
                            current = scratch[slot]
                        if at.has_x:
                            nba[slot] = unknown
                        else:
                            nba[slot] = current.replace_slice(
                                at.value, at.value, value.resize(1))
                return write
            msb, _ = self._lower_expr(target.msb)
            lsb, _ = self._lower_expr(target.lsb)
            if blocking:
                def write(scratch, nba, value):
                    hi, lo = msb(scratch), lsb(scratch)
                    current = scratch[slot]
                    if hi.has_x or lo.has_x:
                        scratch[slot] = unknown
                    else:
                        span = abs(hi.value - lo.value) + 1
                        scratch[slot] = current.replace_slice(
                            hi.value, lo.value, value.resize(span))
            else:
                def write(scratch, nba, value):
                    hi, lo = msb(scratch), lsb(scratch)
                    current = nba.get(slot)
                    if current is None:
                        current = scratch[slot]
                    if hi.has_x or lo.has_x:
                        nba[slot] = unknown
                    else:
                        span = abs(hi.value - lo.value) + 1
                        nba[slot] = current.replace_slice(
                            hi.value, lo.value, value.resize(span))
            return write
        if t is ast.Concat:
            # {a, b} = value : split from the high end.  Part widths must be
            # compile-time constants (the interpreter evaluates part-select
            # bounds against the live environment; non-constant bounds in a
            # *target* are out of scope for the compiled tier).
            widths = tuple(self._static_target_width(p) for p in target.parts)
            writers = tuple(self._lower_write(p, blocking)
                            for p in target.parts)

            def write(scratch, nba, value):
                offset = value.width
                for part_width, part_write in zip(widths, writers):
                    offset -= part_width
                    part_value = value.slice(
                        min(offset + part_width - 1, value.width - 1),
                        max(offset, 0))
                    part_write(scratch, nba, part_value.resize(part_width))
            return write
        message = f"unsupported assignment target {type(target).__name__}"

        def bad_write(scratch, nba, value):
            raise SimulationError(message)
        return bad_write

    def _static_target_width(self, target: ast.Expr) -> int:
        if isinstance(target, ast.Ident):
            sym = self.design.symbols.get(target.name)
            if sym is None:
                raise UnsupportedDesign(
                    f"concat write to undeclared signal '{target.name}'")
            return sym.width
        if isinstance(target, ast.BitSelect):
            return 1
        if isinstance(target, ast.PartSelect):
            msb = self._fold_int(target.msb)
            lsb = self._fold_int(target.lsb)
            if msb is None or lsb is None:
                raise UnsupportedDesign(
                    "non-constant part-select bounds in assignment target")
            return abs(msb - lsb) + 1
        if isinstance(target, ast.Concat):
            return sum(self._static_target_width(p) for p in target.parts)
        raise UnsupportedDesign(
            f"unsupported assignment target {type(target).__name__}")

    def _fold_int(self, expr: ast.Expr) -> Optional[int]:
        fn, const = self._lower_expr(expr)
        if not const:
            return None
        try:
            value = fn(None)
        except Exception:
            return None
        if value.has_x:
            return None
        return value.value

    # -- statements --------------------------------------------------------

    def _lower_stmt(self, stmt: ast.Stmt):
        t = type(stmt)
        if t is ast.Block:
            fns = tuple(self._lower_stmt(child) for child in stmt.stmts)
            if len(fns) == 1:
                return fns[0]

            def block(scratch, nba):
                for fn in fns:
                    fn(scratch, nba)
            return block
        if t is ast.Assignment:
            value, _ = self._lower_expr(stmt.value)
            target = stmt.target
            if type(target) is ast.Ident:
                sym = self.design.symbols.get(target.name)
                if sym is not None:
                    slot = self.slots[target.name]
                    width = sym.width
                    if stmt.blocking:
                        def assign(scratch, nba):
                            scratch[slot] = value(scratch).resize(width)
                    else:
                        def assign(scratch, nba):
                            nba[slot] = value(scratch).resize(width)
                    return assign
            write = self._lower_write(target, stmt.blocking)

            def assign(scratch, nba):
                write(scratch, nba, value(scratch))
            return assign
        if t is ast.If:
            cond, _ = self._lower_expr(stmt.cond)
            then = self._lower_stmt(stmt.then)
            other = self._lower_stmt(stmt.other) if stmt.other is not None \
                else None
            poison = self._poison_entries(stmt)

            if other is None:
                def branch(scratch, nba):
                    select = cond(scratch)
                    if select.is_true():
                        then(scratch, nba)
                    elif select.has_x:
                        for slot, xval in poison:
                            nba[slot] = xval
            else:
                def branch(scratch, nba):
                    select = cond(scratch)
                    if select.is_true():
                        then(scratch, nba)
                    elif select.is_false():
                        other(scratch, nba)
                    elif select.has_x:
                        for slot, xval in poison:
                            nba[slot] = xval
            return branch
        if t is ast.Case:
            return self._lower_case(stmt)
        if t is ast.SysTaskCall:
            def noop(scratch, nba):
                pass  # $display/$finish are inert in the cycle engine.
            return noop
        raise UnsupportedDesign(f"cannot execute {type(stmt).__name__}")

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
                        sym = self.design.symbols.get(name)
                        if sym is not None and name not in seen:
                            seen.add(name)
                            entries.append((self.slots[name],
                                            FourState.unknown(sym.width)))
        return tuple(entries)

    def _lower_case(self, stmt: ast.Case):
        subject, _ = self._lower_expr(stmt.subject)
        wildcard = stmt.kind in ("casez", "casex")
        entries = []
        default = None
        for item in stmt.items:
            if item.is_default:
                default = self._lower_stmt(item.body)
                continue
            labels = tuple(self._lower_expr(label)[0]
                           for label in item.labels)
            entries.append((labels, self._lower_stmt(item.body)))
        entries = tuple(entries)

        def case(scratch, nba):
            value = subject(scratch)
            for labels, body in entries:
                for label in labels:
                    label_value = label(scratch)
                    if wildcard:
                        # Treat x bits in the label as wildcards.
                        care = ~label_value.xmask
                        width = max(value.width, label_value.width)
                        if value.has_x:
                            continue
                        if ((value.value ^ label_value.value)
                                & care & ((1 << width) - 1)) == 0:
                            body(scratch, nba)
                            return
                    else:
                        if value.eq(label_value).is_true():
                            body(scratch, nba)
                            return
            if default is not None:
                default(scratch, nba)
        return case

    # -- combinational / sequential items ----------------------------------

    def _lower_assign_step(self, item, track_changes: bool = True):
        """Continuous assign -> ``step(env) -> changed``.

        ``track_changes=False`` is the acyclic-program variant: the
        single-pass settle ignores the changed flag, so the steps skip
        the old-vs-new value comparison and write unconditionally.
        """
        value, _ = self._lower_expr(item.value)
        target = item.target
        if type(target) is ast.Ident:
            sym = self.design.symbols.get(target.name)
            if sym is not None:
                slot = self.slots[target.name]
                width = sym.width
                if not track_changes:
                    def step(env):
                        env[slot] = value(env).resize(width)
                        return False
                    return step

                def step(env):
                    new = value(env).resize(width)
                    if env[slot] != new:
                        env[slot] = new
                        return True
                    return False
                return step
        write = self._lower_write(target, blocking=False)
        if not track_changes:
            def step(env):
                tmp: Dict[int, FourState] = {}
                write(env, tmp, value(env))
                for slot, new in tmp.items():
                    env[slot] = new
                return False
            return step

        def step(env):
            tmp: Dict[int, FourState] = {}
            write(env, tmp, value(env))
            changed = False
            for slot, new in tmp.items():
                if env[slot] != new:
                    env[slot] = new
                    changed = True
            return changed
        return step

    def _block_target_slots(self, block: ast.AlwaysBlock,
                            state_only: bool) -> Tuple[int, ...]:
        slots = []
        for stmt in _walk_stmts(block.body):
            if isinstance(stmt, ast.Assignment):
                for name in _target_name_list(stmt.target):
                    sym = self.design.symbols.get(name)
                    if sym is None or (state_only and not sym.is_state):
                        continue
                    slots.append(self.slots[name])
        return tuple(slots)

    def _lower_comb_block_step(self, block: ast.AlwaysBlock,
                               track_changes: bool = True):
        body = self._lower_stmt(block.body)
        targets = self._block_target_slots(block, state_only=False)
        if not track_changes:
            def step(env):
                scratch = env[:]
                nba: Dict[int, FourState] = {}
                body(scratch, nba)
                for slot, new in nba.items():
                    scratch[slot] = new
                for slot in targets:
                    env[slot] = scratch[slot]
                return False
            return step

        def step(env):
            scratch = env[:]
            nba: Dict[int, FourState] = {}
            body(scratch, nba)
            # In comb blocks both '=' and '<=' behave combinationally.
            for slot, new in nba.items():
                scratch[slot] = new
            changed = False
            for slot in targets:
                new = scratch[slot]
                if new != env[slot]:
                    env[slot] = new
                    changed = True
            return changed
        return step

    def _lower_seq_block_step(self, block: ast.AlwaysBlock):
        body = self._lower_stmt(block.body)
        # A block with no blocking assignments never writes scratch, so the
        # env copy and the edge-commit sweep would both be no-ops: the body
        # can read env directly.
        if not any(isinstance(stmt, ast.Assignment) and stmt.blocking
                   for stmt in _walk_stmts(block.body)):
            def step(env, nba):
                body(env, nba)
            return step
        # Blocking writes inside clocked blocks also commit at the edge,
        # but only for state-holding signals.
        state_targets = self._block_target_slots(block, state_only=True)

        def step(env, nba):
            scratch = env[:]
            body(scratch, nba)
            for slot in state_targets:
                new = scratch[slot]
                if env[slot] != new and slot not in nba:
                    nba[slot] = new
        return step

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

    def lower(self) -> "CompiledProgram":
        design = self.design
        comb_items = []  # (reads, writes, lower_step_thunk)
        for item in design.assigns:
            reads: set = set()
            self._expr_reads(item.value, reads)
            self._target_reads(item.target, reads)
            writes = {name for name in _target_name_list(item.target)
                      if name in self.slots}
            comb_items.append(
                (reads, writes,
                 lambda item=item, tc=True: self._lower_assign_step(item, tc)))
        for block in design.comb_blocks:
            reads = set()
            self._stmt_reads(block.body, reads)
            writes = {name for name in self._block_target_names(block)}
            comb_items.append(
                (reads, writes,
                 lambda block=block, tc=True:
                     self._lower_comb_block_step(block, tc)))
        order, acyclic = self._comb_order([(reads, writes)
                                           for reads, writes, _ in comb_items])
        # Acyclic programs settle in one compare-free sweep, so their
        # steps can skip the changed-value bookkeeping entirely.
        comb_steps = tuple(comb_items[index][2](tc=not acyclic)
                           for index in order)
        seq_steps = tuple(self._lower_seq_block_step(block)
                          for block in design.seq_blocks)

        # Reset-time environment: run the interpreter's own reset once
        # (declaration inits + initial blocks) so startup state — and any
        # error it raises — is identical by construction.
        interp = Simulator(design)
        initial_values = tuple(interp.env[name] for name in self.names)

        return CompiledProgram(
            design=design, names=self.names, slots=self.slots,
            widths=self.widths, initial_values=initial_values,
            comb_steps=comb_steps, seq_steps=seq_steps,
            comb_acyclic=acyclic)

    def _block_target_names(self, block: ast.AlwaysBlock):
        names = []
        for stmt in _walk_stmts(block.body):
            if isinstance(stmt, ast.Assignment):
                for name in _target_name_list(stmt.target):
                    if name in self.slots:
                        names.append(name)
        return names


class CompiledProgram:
    """The reusable, immutable result of lowering one design."""

    __slots__ = ("design", "names", "slots", "widths", "initial_values",
                 "comb_steps", "seq_steps", "comb_acyclic", "trace_names",
                 "reset_active_drive", "reset_inactive_drive", "zero_drive",
                 "reset_inputs", "inactive_ints", "drive_cache")

    def __init__(self, design: Design, names, slots, widths, initial_values,
                 comb_steps, seq_steps, comb_acyclic=False):
        self.design = design
        self.names = names
        self.slots = slots
        self.widths = widths
        self.initial_values = initial_values
        self.comb_steps = comb_steps
        self.seq_steps = seq_steps
        self.comb_acyclic = comb_acyclic
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

    def settle(self) -> None:
        values = self.values
        steps = self.program.comb_steps
        if self.program.comb_acyclic:
            # Single-driver DAG evaluated in dependency order: one sweep
            # IS the fixed point, so skip the confirmation pass.
            for step in steps:
                step(values)
            return
        for _ in range(_MAX_SETTLE_ITERATIONS):
            changed = False
            for step in steps:
                if step(values):
                    changed = True
            if not changed:
                return
        raise SimulationError(
            f"combinational logic failed to settle within "
            f"{_MAX_SETTLE_ITERATIONS} iterations (loop?)")

    def tick(self) -> None:
        """One clock edge: evaluate sequential blocks, commit, settle."""
        values = self.values
        nba: Dict[int, FourState] = {}
        for step in self.program.seq_steps:
            step(values, nba)
        for slot, value in nba.items():
            values[slot] = value
        self.settle()

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
        self.settle()
        return dict(zip(program.names, self.values)), inputs

    def _load(self, snapshot: Dict[str, FourState]) -> None:
        self.values = [snapshot[name] for name in self.program.names]

    def _save(self) -> List[FourState]:
        return list(self.values)

    def _restore(self, state: List[FourState]) -> None:
        self.values = list(state)


# -- program cache / factory --------------------------------------------------

_PROGRAM_LOCK = threading.Lock()
# Design instance -> CompiledProgram | UnsupportedDesign.  CompileCache
# shares one immutable Design per source content hash, so identity keying
# is content keying in-process; weak keys let evicted designs free their
# programs.
_PROGRAMS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

_COUNTERS: Dict[str, int] = {
    "programs_compiled": 0,
    "program_cache_hits": 0,
    "unsupported_designs": 0,
    "compiled_simulators": 0,
    "interp_simulators": 0,
    "fallback_simulators": 0,
}


def sim_program_counters() -> Dict[str, int]:
    """Metrics provider: program-cache and mode-selection counters."""
    return dict(_COUNTERS)


metrics.register_provider("sim_program", sim_program_counters)


def compile_program(design: Design) -> CompiledProgram:
    """Lower ``design`` (memoized per design instance).

    Raises :class:`UnsupportedDesign` (also memoized) when the design uses
    constructs the lowerer does not handle, and propagates whatever the
    interpreter's own reset would raise (e.g. ``EvalError`` from a bad
    initializer) without caching it.
    """
    with _PROGRAM_LOCK:
        cached = _PROGRAMS.get(design)
    if cached is not None:
        _COUNTERS["program_cache_hits"] += 1
        if isinstance(cached, UnsupportedDesign):
            raise UnsupportedDesign(str(cached))
        return cached
    start = perf_counter()
    try:
        try:
            program = _Lowerer(design).lower()
        except UnsupportedDesign as exc:
            _COUNTERS["unsupported_designs"] += 1
            with _PROGRAM_LOCK:
                _PROGRAMS[design] = exc
            raise
        _COUNTERS["programs_compiled"] += 1
        with _PROGRAM_LOCK:
            _PROGRAMS[design] = program
        return program
    finally:
        metrics.add_time("compile_program", perf_counter() - start)


def make_simulator(design: Design, sim_mode: str = "compiled"):
    """The one place the ``sim_mode`` knob is interpreted.

    ``"compiled"`` returns a :class:`CompiledSimulator` (falling back to
    the interpreter for unsupported designs); ``"interp"`` always returns
    the AST-walking :class:`Simulator`.  Both produce identical traces.
    """
    if sim_mode not in SIM_MODES:
        raise ValueError(
            f"sim_mode must be one of {SIM_MODES}, got {sim_mode!r}")
    if sim_mode == "interp":
        _COUNTERS["interp_simulators"] += 1
        return Simulator(design)
    try:
        program = compile_program(design)
    except UnsupportedDesign:
        _COUNTERS["fallback_simulators"] += 1
        return Simulator(design)
    _COUNTERS["compiled_simulators"] += 1
    return CompiledSimulator(program)
