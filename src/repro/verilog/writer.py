"""Canonical source emission (AST -> Verilog text).

All artefacts in the reproduction pipeline are kept in *canonical form*:
corpus templates are parsed and re-emitted through this writer before any
bug is injected.  The writer guarantees one statement per line with stable
formatting, so a single AST mutation changes exactly one emitted line and
``(line number, before, after)`` is a faithful golden solution — the same
bookkeeping the paper relies on when judging a model's answer by its buggy
line.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.verilog import ast
from repro.verilog.parser import BINARY_PRECEDENCE

_INDENT = "  "


def write_expr(expr: ast.Expr, parent_prec: int = 0) -> str:
    """Render an expression, adding parentheses only where precedence
    requires them."""
    if isinstance(expr, ast.Number):
        return expr.text
    if isinstance(expr, ast.Ident):
        return expr.name
    if isinstance(expr, ast.Unary):
        inner = write_expr(expr.operand, parent_prec=12)
        return f"{expr.op}{inner}"
    if isinstance(expr, ast.Binary):
        prec = BINARY_PRECEDENCE.get(expr.op, 0)
        lhs = write_expr(expr.lhs, prec)
        rhs = write_expr(expr.rhs, prec + 1)
        text = f"{lhs} {expr.op} {rhs}"
        if prec < parent_prec:
            return f"({text})"
        return text
    if isinstance(expr, ast.Ternary):
        cond = write_expr(expr.cond, 1)
        then = write_expr(expr.then)
        other = write_expr(expr.other)
        text = f"{cond} ? {then} : {other}"
        if parent_prec > 0:
            return f"({text})"
        return text
    if isinstance(expr, ast.BitSelect):
        return f"{write_expr(expr.base, 12)}[{write_expr(expr.index)}]"
    if isinstance(expr, ast.PartSelect):
        return (f"{write_expr(expr.base, 12)}"
                f"[{write_expr(expr.msb)}:{write_expr(expr.lsb)}]")
    if isinstance(expr, ast.Concat):
        return "{" + ", ".join(write_expr(p) for p in expr.parts) + "}"
    if isinstance(expr, ast.Repeat):
        return "{" + write_expr(expr.count, 12) + "{" + write_expr(expr.value) + "}}"
    if isinstance(expr, ast.SysCall):
        args = ", ".join(write_expr(a) for a in expr.args)
        return f"{expr.name}({args})"
    raise TypeError(f"cannot write expression node {type(expr).__name__}")


def write_prop(prop: ast.PropExpr) -> str:
    if isinstance(prop, ast.PropBool):
        return write_expr(prop.expr)
    if isinstance(prop, ast.PropDelay):
        delay = f"##{prop.lo}" if prop.lo == prop.hi else f"##[{prop.lo}:{prop.hi}]"
        lhs = write_prop(prop.lhs) + " " if prop.lhs is not None else ""
        return f"{lhs}{delay} {write_prop(prop.rhs)}"
    if isinstance(prop, ast.PropImplication):
        op = "|->" if prop.overlapped else "|=>"
        return f"{write_prop(prop.antecedent)} {op} {write_prop(prop.consequent)}"
    if isinstance(prop, ast.PropNot):
        return f"not ({write_prop(prop.operand)})"
    raise TypeError(f"cannot write property node {type(prop).__name__}")


#: owner node -> (index of its line, zero-argument re-emitter of that line)
OwnerLines = Dict[ast.Node, Tuple[int, Callable[[], str]]]


def _assignment_text(node: ast.Assignment) -> str:
    op = "=" if node.blocking else "<="
    return f"{write_expr(node.target)} {op} {write_expr(node.value)};"


def _if_text(node: ast.If) -> str:
    return f"if ({write_expr(node.cond)})"


def _else_if_text(node: ast.If) -> str:
    return f"else if ({write_expr(node.cond)})"


def _labels_text(node: ast.CaseItem) -> str:
    return ", ".join(write_expr(lbl) for lbl in node.labels) + ":"


def _continuous_assign_text(node: ast.ContinuousAssign) -> str:
    return f"assign {write_expr(node.target)} = {write_expr(node.value)};"


class _Emitter:
    def __init__(self, owners: Optional[OwnerLines] = None):
        self.lines: List[str] = []
        self.owners = owners

    def emit(self, depth: int, text: str) -> None:
        self.lines.append(f"{_INDENT * depth}{text}" if text else "")

    def owned(self, depth: int, node: ast.Node,
              text: Callable[[ast.Node], str]) -> None:
        """Emit the one line that ``node``'s mutation sites sit on and,
        when recording owners, note its index and how to re-emit it."""
        if self.owners is not None:
            indent = _INDENT * depth
            self.owners[node] = (len(self.lines),
                                 lambda: indent + text(node))
        self.emit(depth, text(node))

    # -- statements ---------------------------------------------------------

    def stmt(self, node: ast.Stmt, depth: int) -> None:
        if isinstance(node, ast.Block):
            if not node.stmts:
                self.emit(depth, ";")
                return
            self.emit(depth, "begin")
            for child in node.stmts:
                self.stmt(child, depth + 1)
            self.emit(depth, "end")
        elif isinstance(node, ast.Assignment):
            self.owned(depth, node, _assignment_text)
        elif isinstance(node, ast.If):
            self.owned(depth, node, _if_text)
            self._branch(node.then, depth)
            if node.other is not None:
                if isinstance(node.other, ast.If):
                    # Render 'else if' chains without extra nesting.
                    self._else_if(node.other, depth)
                else:
                    self.emit(depth, "else")
                    self._branch(node.other, depth)
        elif isinstance(node, ast.Case):
            self.emit(depth, f"{node.kind} ({write_expr(node.subject)})")
            for item in node.items:
                if item.is_default:
                    self.emit(depth + 1, "default:")
                else:
                    self.owned(depth + 1, item, _labels_text)
                self._branch(item.body, depth + 1)
            self.emit(depth, "endcase")
        elif isinstance(node, ast.SysTaskCall):
            args = ", ".join(write_expr(a) for a in node.args)
            self.emit(depth, f"{node.name}({args});")
        else:
            raise TypeError(f"cannot write statement node {type(node).__name__}")

    def _branch(self, node: ast.Stmt, depth: int) -> None:
        if isinstance(node, ast.Block):
            self.stmt(node, depth + 1)
        else:
            self.stmt(node, depth + 1)

    def _else_if(self, node: ast.If, depth: int) -> None:
        self.owned(depth, node, _else_if_text)
        self._branch(node.then, depth)
        if node.other is not None:
            if isinstance(node.other, ast.If):
                self._else_if(node.other, depth)
            else:
                self.emit(depth, "else")
                self._branch(node.other, depth)

    # -- items ---------------------------------------------------------------

    def item(self, node: ast.Item, depth: int) -> None:
        if isinstance(node, ast.Decl):
            width = "" if node.width == 1 and node.kind != "integer" else \
                f" [{node.msb}:{node.lsb}]"
            if node.kind == "integer":
                width = ""
            signed = " signed" if node.signed else ""
            init = f" = {write_expr(node.init)}" if node.init is not None else ""
            self.emit(depth, f"{node.kind}{signed}{width} {node.name}{init};")
        elif isinstance(node, ast.ParamDecl):
            kw = "localparam" if node.local else "parameter"
            self.emit(depth, f"{kw} {node.name} = {write_expr(node.value)};")
        elif isinstance(node, ast.ContinuousAssign):
            self.owned(depth, node, _continuous_assign_text)
        elif isinstance(node, ast.AlwaysBlock):
            if node.comb:
                self.emit(depth, "always @(*)")
            elif node.edges:
                sens = " or ".join(f"{e.edge} {e.signal}" for e in node.edges)
                self.emit(depth, f"always @({sens})")
            else:
                self.emit(depth, "initial")
            self._branch(node.body, depth)
        elif isinstance(node, ast.PropertyDecl):
            self.emit(depth, f"property {node.name};")
            spec = []
            if node.clock is not None:
                spec.append(f"@({node.clock.edge} {node.clock.signal})")
            if node.disable is not None:
                spec.append(f"disable iff ({write_expr(node.disable)})")
            spec.append(write_prop(node.body))
            self.emit(depth + 1, " ".join(spec) + ";")
            self.emit(depth, "endproperty")
        elif isinstance(node, ast.AssertionItem):
            ref = node.property_name or ""
            if node.inline is not None:
                spec = []
                if node.inline.clock is not None:
                    spec.append(f"@({node.inline.clock.edge} {node.inline.clock.signal})")
                if node.inline.disable is not None:
                    spec.append(f"disable iff ({write_expr(node.inline.disable)})")
                spec.append(write_prop(node.inline.body))
                ref = " ".join(spec)
            tail = ""
            if node.message:
                tail = f' else $error("{node.message}")'
            self.emit(depth, f"{node.label}: assert property ({ref}){tail};")
        elif isinstance(node, ast.Instance):
            conns = ", ".join(f".{p}({write_expr(e)})" for p, e in node.connections)
            self.emit(depth, f"{node.module_name} {node.instance_name} ({conns});")
        else:
            raise TypeError(f"cannot write item node {type(node).__name__}")


def write_header_lines(module: ast.Module) -> List[str]:
    """The module/port header lines of the canonical emission."""
    emitter = _Emitter()
    if module.ports:
        emitter.emit(0, f"module {module.name} (")
        for i, port in enumerate(module.ports):
            kind = " reg" if port.is_reg else ""
            signed = " signed" if port.signed else ""
            width = "" if port.width == 1 else f" [{port.msb}:{port.lsb}]"
            comma = "," if i < len(module.ports) - 1 else ""
            emitter.emit(1, f"{port.direction}{kind}{signed}{width} {port.name}{comma}")
        emitter.emit(0, ");")
    else:
        emitter.emit(0, f"module {module.name} ();")
    return emitter.lines


def write_item_lines(item: ast.Item,
                     owners: Optional[OwnerLines] = None) -> List[str]:
    """One module item's canonical lines (depth 1).

    ``write_module`` is exactly header + per-item lines + ``endmodule``.
    With an ``owners`` dict, every line a single-node mutation can change
    is recorded there: its owner node (an assignment, an ``if`` or
    ``else if`` header, a case item's label line, a continuous assign)
    maps to the line's index in the returned list and a zero-argument
    function that re-emits that line from the AST as it stands.  Every
    mutation site sits on its owner's line, so the mutation site table
    re-emits one line per edit (:class:`repro.bugs.mutators.SiteTable`).
    """
    emitter = _Emitter(owners)
    emitter.item(item, 1)
    return emitter.lines


def write_module(module: ast.Module) -> str:
    """Emit ``module`` as canonical Verilog source text."""
    lines = write_header_lines(module)
    for item in module.items:
        lines = lines + write_item_lines(item)
    lines.append("endmodule")
    return "\n".join(lines) + "\n"
