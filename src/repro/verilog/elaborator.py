"""Elaboration: AST -> checked design.

The elaborator resolves parameters and ranges, builds the symbol table,
performs the semantic checks a compiler would (undeclared identifiers,
illegal assignment targets, duplicate declarations, driver conflicts,
dangling property references) and classifies the module's processes for
the simulator.

The result, :class:`Design`, is the hand-off object consumed by
:mod:`repro.sim` and :mod:`repro.sva`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.verilog import ast
from repro.verilog.errors import Diagnostic, VerilogSemanticError

_BUILTIN_CONSTS: Set[str] = set()

#: System functions that evaluate their first argument.
_TAKES_ARGUMENT = frozenset((
    "$countones", "$onehot", "$onehot0", "$signed", "$unsigned",
    "$past", "$rose", "$fell", "$stable"))


class Symbol:
    """One named signal (port, net or variable) in a module."""

    __slots__ = ("name", "kind", "width", "signed", "direction", "line", "init")

    def __init__(self, name: str, kind: str, width: int, signed: bool = False,
                 direction: Optional[str] = None, line: int = 0,
                 init: Optional[ast.Expr] = None):
        self.name = name
        self.kind = kind          # 'wire' | 'reg' | 'integer'
        self.width = width
        self.signed = signed
        self.direction = direction  # 'input' | 'output' | 'inout' | None
        self.line = line
        self.init = init

    @property
    def is_input(self) -> bool:
        return self.direction == "input"

    @property
    def is_output(self) -> bool:
        return self.direction == "output"

    @property
    def is_state(self) -> bool:
        return self.kind in ("reg", "integer")

    def __repr__(self) -> str:  # pragma: no cover
        return f"Symbol({self.name!r}, {self.kind}, w={self.width})"


class ResolvedAssertion:
    """An assertion bound to its (possibly inline) property declaration."""

    __slots__ = ("label", "prop", "message", "line")

    def __init__(self, label: str, prop: ast.PropertyDecl, message: str, line: int):
        self.label = label
        self.prop = prop
        self.message = message
        self.line = line


class Design:
    """Elaborated single-module design.

    Attributes
    ----------
    module:       the source AST (kept for bug injection / re-emission).
    symbols:      name -> :class:`Symbol`.
    params:       name -> int parameter value.
    assigns:      continuous assignments in source order.
    comb_blocks:  combinational always blocks.
    seq_blocks:   clocked always blocks.
    initial_blocks: ``initial`` bodies, applied once at time zero.
    assertions:   resolved assert-property items.
    clocks:       names of signals used as clocks in sequential processes.
    resets:       names of async-reset signals (negedge/posedge in
                  sensitivity lists that are not the clock).
    """

    def __init__(self, module: ast.Module):
        self.module = module
        self.symbols: Dict[str, Symbol] = {}
        self.params: Dict[str, int] = {}
        self.assigns: List[ast.ContinuousAssign] = []
        self.comb_blocks: List[ast.AlwaysBlock] = []
        self.seq_blocks: List[ast.AlwaysBlock] = []
        self.initial_blocks: List[ast.AlwaysBlock] = []
        self.assertions: List[ResolvedAssertion] = []
        self.clocks: List[str] = []
        self.resets: List[str] = []
        self.diagnostics: List[Diagnostic] = []

    @property
    def name(self) -> str:
        return self.module.name

    def inputs(self) -> List[Symbol]:
        return [s for s in self.symbols.values() if s.is_input]

    def outputs(self) -> List[Symbol]:
        return [s for s in self.symbols.values() if s.is_output]

    def free_inputs(self) -> List[Symbol]:
        """Inputs that are neither clock nor reset — the BMC's stimulus space."""
        special = set(self.clocks) | set(self.resets)
        return [s for s in self.inputs() if s.name not in special]

    def width_of(self, name: str) -> int:
        return self.symbols[name].width


class Elaborator:
    def __init__(self, module: ast.Module):
        self.module = module
        self.design = Design(module)

    def error(self, message: str, line: int = 0) -> None:
        self.design.diagnostics.append(Diagnostic(Diagnostic.ERROR, message, line))

    def warn(self, message: str, line: int = 0) -> None:
        self.design.diagnostics.append(Diagnostic(Diagnostic.WARNING, message, line))

    # -- main ----------------------------------------------------------------

    def elaborate(self) -> Design:
        self._collect_params()
        self._collect_symbols()
        self._classify_items()
        self._check_references()
        self._check_drivers()
        self._resolve_assertions()
        return self.design

    # -- parameters ----------------------------------------------------------

    def _collect_params(self) -> None:
        for item in self.module.items:
            if isinstance(item, ast.ParamDecl):
                value = self._fold(item.value)
                if value is None:
                    self.error(f"parameter '{item.name}' is not constant", item.line)
                    value = 0
                self.design.params[item.name] = value

    def _fold(self, expr) -> Optional[int]:
        """Fold a constant expression with parameters in scope."""
        if isinstance(expr, int):
            return expr
        if isinstance(expr, ast.Number):
            return expr.value
        if isinstance(expr, ast.Ident):
            return self.design.params.get(expr.name)
        if isinstance(expr, ast.Unary):
            inner = self._fold(expr.operand)
            if inner is None:
                return None
            if expr.op == "-":
                return -inner
            if expr.op == "+":
                return inner
            if expr.op == "~":
                return ~inner
            if expr.op == "!":
                return int(inner == 0)
            return None
        if isinstance(expr, ast.Binary):
            lhs = self._fold(expr.lhs)
            rhs = self._fold(expr.rhs)
            if lhs is None or rhs is None:
                return None
            try:
                return {
                    "+": lambda: lhs + rhs,
                    "-": lambda: lhs - rhs,
                    "*": lambda: lhs * rhs,
                    "/": lambda: lhs // rhs if rhs else None,
                    "%": lambda: lhs % rhs if rhs else None,
                    "<<": lambda: lhs << rhs,
                    ">>": lambda: lhs >> rhs,
                    "**": lambda: lhs ** rhs,
                }[expr.op]()
            except KeyError:
                return None
        return None

    def _resolve_bound(self, bound, line: int) -> int:
        value = self._fold(bound)
        if value is None:
            self.error("range bound is not a constant expression", line)
            return 0
        return value

    # -- symbols ---------------------------------------------------------------

    def _collect_symbols(self) -> None:
        for port in self.module.ports:
            port.msb = self._resolve_bound(port.msb, port.line)
            port.lsb = self._resolve_bound(port.lsb, port.line)
            if port.name in self.design.symbols:
                self.error(f"duplicate port '{port.name}'", port.line)
                continue
            kind = "reg" if port.is_reg else "wire"
            self.design.symbols[port.name] = Symbol(
                port.name, kind, port.width, port.signed, port.direction, port.line)
        for item in self.module.items:
            if not isinstance(item, ast.Decl):
                continue
            item.msb = self._resolve_bound(item.msb, item.line)
            item.lsb = self._resolve_bound(item.lsb, item.line)
            existing = self.design.symbols.get(item.name)
            if existing is not None:
                # 'output reg x;' style re-declaration upgrades the kind.
                if existing.direction is not None and existing.kind == "wire" \
                        and item.kind in ("reg", "integer"):
                    existing.kind = item.kind
                    if item.width != 1 and existing.width == 1:
                        existing.width = item.width
                    continue
                self.error(f"duplicate declaration of '{item.name}'", item.line)
                continue
            self.design.symbols[item.name] = Symbol(
                item.name, item.kind, item.width, item.signed, None, item.line,
                item.init)

    # -- processes ---------------------------------------------------------------

    def _classify_items(self) -> None:
        for item in self.module.items:
            if isinstance(item, ast.ContinuousAssign):
                self.design.assigns.append(item)
            elif isinstance(item, ast.AlwaysBlock):
                if item.comb:
                    self.design.comb_blocks.append(item)
                elif item.edges:
                    self.design.seq_blocks.append(item)
                    self._note_clock_reset(item)
                else:
                    self.design.initial_blocks.append(item)
            elif isinstance(item, ast.Instance):
                self.error(
                    f"hierarchical designs unsupported: instance '{item.instance_name}'",
                    item.line)

    def _note_clock_reset(self, block: ast.AlwaysBlock) -> None:
        """First posedge edge is the clock; remaining edges are async resets."""
        clock_found = False
        for edge in block.edges:
            looks_like_reset = any(tag in edge.signal.lower()
                                   for tag in ("rst", "reset", "clr", "clear"))
            if not clock_found and not looks_like_reset:
                if edge.signal not in self.design.clocks:
                    self.design.clocks.append(edge.signal)
                clock_found = True
            else:
                if edge.signal not in self.design.resets:
                    self.design.resets.append(edge.signal)
        if not clock_found and block.edges:
            # All edges look like resets; treat the first as the clock anyway.
            first = block.edges[0].signal
            if first not in self.design.clocks:
                self.design.clocks.append(first)

    # -- reference checking ---------------------------------------------------

    def _check_references(self) -> None:
        """Undeclared identifiers, and argument-less calls of system
        functions that evaluate one (in initializers too)."""
        known = set(self.design.symbols) | set(self.design.params) | _BUILTIN_CONSTS
        for item in self.module.items:
            where = ""
            if isinstance(item, (ast.ContinuousAssign, ast.AlwaysBlock)):
                root = item
            elif isinstance(item, ast.PropertyDecl):
                root, where = item, f" in property '{item.name}'"
            elif isinstance(item, ast.AssertionItem) and item.inline is not None:
                root = item.inline
            elif isinstance(item, ast.Decl) and item.init is not None:
                root, where = item.init, None
            else:
                continue
            for node in ast.walk(root):
                if isinstance(node, ast.Ident):
                    if where is not None and node.name not in known:
                        self.error(f"identifier '{node.name}'{where} is not "
                                   f"declared", node.line)
                elif (isinstance(node, ast.SysCall) and not node.args
                      and node.name in _TAKES_ARGUMENT):
                    self.error(f"system function {node.name} needs an "
                               f"argument", node.line)

    # -- driver checking -------------------------------------------------------

    def _check_drivers(self) -> None:
        assign_targets: Dict[str, int] = {}
        proc_targets: Dict[str, int] = {}
        for item in self.design.assigns:
            for name, line in self._target_names(item.target):
                sym = self._target_symbol(name, line)
                if sym is None:
                    continue
                if sym.is_input:
                    self.error(f"continuous assignment to input '{name}'", line)
                elif sym.is_state:
                    self.error(
                        f"continuous assignment to reg '{name}' "
                        f"(must be a wire)", line)
                if name in assign_targets:
                    self.warn(f"'{name}' has multiple continuous drivers", line)
                assign_targets[name] = line
        for block in (self.design.seq_blocks + self.design.comb_blocks
                      + self.design.initial_blocks):
            for stmt in _walk_stmts(block.body):
                if not isinstance(stmt, ast.Assignment):
                    continue
                for name, line in self._target_names(stmt.target):
                    sym = self._target_symbol(name, line)
                    if sym is None:
                        continue
                    if sym.is_input:
                        self.error(f"procedural assignment to input '{name}'", line)
                    elif not sym.is_state:
                        self.error(
                            f"procedural assignment to wire '{name}' "
                            f"(must be a reg)", line)
                    if name in assign_targets:
                        self.error(
                            f"'{name}' driven by both assign and always", line)
                    proc_targets[name] = line

    def _target_symbol(self, name: str, line: int) -> Optional[Symbol]:
        """The symbol an assignment writes; a parameter is not one."""
        sym = self.design.symbols.get(name)
        if sym is None and name in self.design.params:
            self.error(f"assignment to parameter '{name}'", line)
        return sym

    def _target_names(self, target: ast.Expr):
        if isinstance(target, ast.Ident):
            yield target.name, target.line
        elif isinstance(target, (ast.BitSelect, ast.PartSelect)):
            yield from self._target_names(target.base)
        elif isinstance(target, ast.Concat):
            for part in target.parts:
                yield from self._target_names(part)

    # -- assertions -------------------------------------------------------------

    def _resolve_assertions(self) -> None:
        props = {p.name: p for p in self.module.properties()}
        for item in self.module.assertions():
            if item.inline is not None:
                prop = item.inline
            elif item.property_name is not None:
                prop = props.get(item.property_name)
                if prop is None:
                    self.error(
                        f"assertion '{item.label}' references unknown property "
                        f"'{item.property_name}'", item.line)
                    continue
            else:
                self.error(f"assertion '{item.label}' has no property", item.line)
                continue
            if prop.clock is not None and prop.clock.signal not in self.design.symbols:
                self.error(
                    f"property '{prop.name}' clocked on undeclared signal "
                    f"'{prop.clock.signal}'", prop.line)
                continue
            self.design.assertions.append(
                ResolvedAssertion(item.label, prop, item.message, item.line))


def _walk_stmts(stmt: ast.Stmt):
    """Yield every statement node under ``stmt`` (inclusive)."""
    yield stmt
    if isinstance(stmt, ast.Block):
        for child in stmt.stmts:
            yield from _walk_stmts(child)
    elif isinstance(stmt, ast.If):
        yield from _walk_stmts(stmt.then)
        if stmt.other is not None:
            yield from _walk_stmts(stmt.other)
    elif isinstance(stmt, ast.Case):
        for case_item in stmt.items:
            yield from _walk_stmts(case_item.body)


def elaborate(module: ast.Module, strict: bool = True) -> Design:
    """Elaborate ``module``.

    With ``strict`` (default) a :class:`VerilogSemanticError` is raised on
    the first error-severity diagnostic, mirroring a failed compile.  With
    ``strict=False`` the design is returned with ``diagnostics`` populated
    so callers (the datagen pipeline) can harvest failure analyses.
    """
    design = Elaborator(module).elaborate()
    if strict:
        for diag in design.diagnostics:
            if diag.is_error():
                raise VerilogSemanticError(diag.message, diag.line)
    return design
