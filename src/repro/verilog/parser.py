"""Recursive-descent parser for the Verilog/SVA subset.

``parse_source`` is the entry point used everywhere; it raises
:class:`VerilogParseError` on the first grammar violation (matching how the
datagen pipeline uses the Icarus substitute: a thrown diagnostic == failed
compilation).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.verilog import ast
from repro.verilog.errors import VerilogLexError, VerilogParseError
from repro.verilog.lexer import Token, parse_number_literal, tokenize

# Binary operator precedence (higher binds tighter).  Mirrors IEEE 1800.
BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4, "~^": 4, "^~": 4,
    "&": 5,
    "==": 6, "!=": 6, "===": 6, "!==": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8, "<<<": 8, ">>>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
    "**": 11,
}

UNARY_OPS = {"~", "!", "-", "+", "&", "|", "^"}


class Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token helpers ------------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        idx = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[idx]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def error(self, message: str, token: Optional[Token] = None) -> VerilogParseError:
        token = token or self.peek()
        seen = token.text or "<eof>"
        return VerilogParseError(f"{message} (found {seen!r})", token.line)

    def expect_op(self, text: str) -> Token:
        token = self.peek()
        if not token.is_op(text):
            raise self.error(f"expected {text!r}")
        return self.advance()

    def expect_kw(self, text: str) -> Token:
        token = self.peek()
        if not token.is_kw(text):
            raise self.error(f"expected keyword {text!r}")
        return self.advance()

    def expect_ident(self) -> Token:
        token = self.peek()
        if token.kind != "id":
            raise self.error("expected identifier")
        return self.advance()

    def accept_op(self, text: str) -> bool:
        if self.peek().is_op(text):
            self.advance()
            return True
        return False

    def accept_kw(self, text: str) -> bool:
        if self.peek().is_kw(text):
            self.advance()
            return True
        return False

    # -- source / module ----------------------------------------------------

    def parse_source(self) -> ast.Source:
        modules = []
        while self.peek().kind != "eof":
            if self.peek().is_kw("module"):
                modules.append(self.parse_module())
            else:
                raise self.error("expected 'module'")
        if not modules:
            raise VerilogParseError("source contains no modules", 1)
        return ast.Source(modules, line=modules[0].line)

    def parse_module(self) -> ast.Module:
        start = self.expect_kw("module")
        name = self.expect_ident().text
        ports: List[ast.Port] = []
        if self.accept_op("("):
            ports = self.parse_port_list()
            self.expect_op(")")
        self.expect_op(";")
        items: List[ast.Item] = []
        while not self.peek().is_kw("endmodule"):
            if self.peek().kind == "eof":
                raise self.error("missing 'endmodule'")
            items.extend(self.parse_item())
        end = self.expect_kw("endmodule")
        return ast.Module(name, ports, items, line=start.line, end_line=end.line)

    def parse_port_list(self) -> List[ast.Port]:
        ports: List[ast.Port] = []
        if self.peek().is_op(")"):
            return ports
        direction = None
        is_reg = False
        signed = False
        msb = lsb = 0
        while True:
            token = self.peek()
            if token.is_kw("input", "output", "inout"):
                direction = self.advance().text
                is_reg = False
                signed = False
                msb = lsb = 0
                if self.peek().is_kw("reg", "logic", "wire"):
                    is_reg = self.advance().text in ("reg", "logic")
                if self.accept_kw("signed"):
                    signed = True
                if self.peek().is_op("["):
                    msb, lsb = self.parse_range()
            if direction is None:
                raise self.error("port missing direction (non-ANSI ports unsupported)")
            ident = self.expect_ident()
            ports.append(ast.Port(direction, ident.text, msb, lsb, is_reg,
                                  signed, line=ident.line))
            if not self.accept_op(","):
                break
        return ports

    def parse_range(self):
        """Parse ``[msb:lsb]``.  Bounds fold to ints when constant, else the
        expression is kept and resolved against parameters at elaboration."""
        self.expect_op("[")
        msb_expr = self.parse_expression()
        self.expect_op(":")
        lsb_expr = self.parse_expression()
        self.expect_op("]")
        msb = _fold_const(msb_expr)
        lsb = _fold_const(lsb_expr)
        return (msb if msb is not None else msb_expr,
                lsb if lsb is not None else lsb_expr)

    def parse_const_int(self) -> int:
        """A constant integer expression (numbers, +,-,* on numbers)."""
        expr = self.parse_expression()
        value = _fold_const(expr)
        if value is None:
            raise self.error("expected constant expression", self.peek())
        return value

    # -- items --------------------------------------------------------------

    def parse_item(self) -> List[ast.Item]:
        token = self.peek()
        if token.is_kw("wire", "reg", "logic", "integer"):
            return self.parse_decl()
        if token.is_kw("parameter", "localparam"):
            return self.parse_param()
        if token.is_kw("assign"):
            return [self.parse_continuous_assign()]
        if token.is_kw("always", "always_ff", "always_comb"):
            return [self.parse_always()]
        if token.is_kw("property"):
            return [self.parse_property()]
        if token.is_kw("assert", "assume", "cover"):
            return [self.parse_assertion(label=None)]
        if token.is_kw("initial"):
            return [self.parse_initial()]
        if token.kind == "id":
            # Either "label: assert property ..." or a module instance.
            if self.peek(1).is_op(":"):
                label = self.advance().text
                self.expect_op(":")
                return [self.parse_assertion(label=label)]
            if self.peek(1).kind == "id":
                return [self.parse_instance()]
        raise self.error("unexpected token at module level")

    def parse_decl(self) -> List[ast.Decl]:
        kind_token = self.advance()
        kind = kind_token.text
        if kind == "logic":
            kind = "reg"
        signed = self.accept_kw("signed")
        msb = lsb = 0
        if kind == "integer":
            msb, lsb = 31, 0
        if self.peek().is_op("["):
            msb, lsb = self.parse_range()
        decls = []
        while True:
            ident = self.expect_ident()
            init = None
            if self.accept_op("="):
                init = self.parse_expression()
            decls.append(ast.Decl(kind, ident.text, msb, lsb, init, signed,
                                  line=ident.line))
            if not self.accept_op(","):
                break
        self.expect_op(";")
        return decls

    def parse_param(self) -> List[ast.ParamDecl]:
        kw = self.advance()
        local = kw.text == "localparam"
        if self.peek().is_op("["):
            self.parse_range()  # parameter ranges are accepted and ignored
        params = []
        while True:
            ident = self.expect_ident()
            self.expect_op("=")
            value = self.parse_expression()
            params.append(ast.ParamDecl(ident.text, value, local, line=ident.line))
            if not self.accept_op(","):
                break
        self.expect_op(";")
        return params

    def parse_continuous_assign(self) -> ast.ContinuousAssign:
        start = self.expect_kw("assign")
        target = self.parse_lvalue()
        self.expect_op("=")
        value = self.parse_expression()
        self.expect_op(";")
        return ast.ContinuousAssign(target, value, line=start.line)

    def parse_always(self) -> ast.AlwaysBlock:
        start = self.advance()
        comb = start.text == "always_comb"
        edges: List[ast.EdgeSpec] = []
        if not comb:
            self.expect_op("@")
            if self.accept_op("*"):
                comb = True
            else:
                self.expect_op("(")
                if self.accept_op("*"):
                    comb = True
                else:
                    comb = self._parse_sensitivity(edges)
                self.expect_op(")")
        body = self.parse_statement()
        return ast.AlwaysBlock(edges, body, comb, line=start.line)

    def _parse_sensitivity(self, edges: List[ast.EdgeSpec]) -> bool:
        """Parse the @(...) list.  Returns True when combinational."""
        comb = False
        while True:
            token = self.peek()
            if token.is_kw("posedge", "negedge"):
                edge = self.advance().text
                signal = self.expect_ident().text
                edges.append(ast.EdgeSpec(edge, signal, line=token.line))
            else:
                # Plain signal list means a combinational block.
                self.expect_ident()
                comb = True
            if self.accept_kw("or") or self.accept_op(","):
                continue
            break
        if comb:
            edges.clear()
        return comb

    def parse_initial(self) -> ast.AlwaysBlock:
        """``initial`` blocks are parsed and retained as comb-like items;
        the simulator applies them once at time zero."""
        start = self.expect_kw("initial")
        body = self.parse_statement()
        block = ast.AlwaysBlock([], body, comb=False, line=start.line)
        return block

    def parse_instance(self) -> ast.Instance:
        module_name = self.expect_ident().text
        inst = self.expect_ident()
        self.expect_op("(")
        connections: List[Tuple[str, ast.Expr]] = []
        if not self.peek().is_op(")"):
            while True:
                self.expect_op(".")
                port = self.expect_ident().text
                self.expect_op("(")
                expr = self.parse_expression()
                self.expect_op(")")
                connections.append((port, expr))
                if not self.accept_op(","):
                    break
        self.expect_op(")")
        self.expect_op(";")
        return ast.Instance(module_name, inst.text, connections, line=inst.line)

    # -- statements ----------------------------------------------------------

    def parse_statement(self) -> ast.Stmt:
        token = self.peek()
        if token.is_kw("begin"):
            return self.parse_block()
        if token.is_kw("if"):
            return self.parse_if()
        if token.is_kw("case", "casez", "casex"):
            return self.parse_case()
        if token.kind == "sys":
            return self.parse_sys_task()
        if token.is_op(";"):
            self.advance()
            return ast.Block([], line=token.line)
        return self.parse_assignment_stmt()

    def parse_block(self) -> ast.Block:
        start = self.expect_kw("begin")
        if self.accept_op(":"):
            self.expect_ident()
        stmts = []
        while not self.peek().is_kw("end"):
            if self.peek().kind == "eof":
                raise self.error("missing 'end'")
            stmts.append(self.parse_statement())
        self.expect_kw("end")
        return ast.Block(stmts, line=start.line)

    def parse_if(self) -> ast.If:
        start = self.expect_kw("if")
        self.expect_op("(")
        cond = self.parse_expression()
        self.expect_op(")")
        then = self.parse_statement()
        other = None
        if self.accept_kw("else"):
            other = self.parse_statement()
        return ast.If(cond, then, other, line=start.line)

    def parse_case(self) -> ast.Case:
        start = self.advance()
        kind = start.text
        self.expect_op("(")
        subject = self.parse_expression()
        self.expect_op(")")
        items: List[ast.CaseItem] = []
        while not self.peek().is_kw("endcase"):
            if self.peek().kind == "eof":
                raise self.error("missing 'endcase'")
            token = self.peek()
            if self.accept_kw("default"):
                self.accept_op(":")
                body = self.parse_statement()
                items.append(ast.CaseItem([], body, is_default=True, line=token.line))
            else:
                labels = [self.parse_expression()]
                while self.accept_op(","):
                    labels.append(self.parse_expression())
                self.expect_op(":")
                body = self.parse_statement()
                items.append(ast.CaseItem(labels, body, line=token.line))
        self.expect_kw("endcase")
        return ast.Case(subject, items, kind, line=start.line)

    def parse_sys_task(self) -> ast.SysTaskCall:
        token = self.advance()
        args: List[ast.Expr] = []
        if self.accept_op("("):
            if not self.peek().is_op(")"):
                while True:
                    if self.peek().kind == "str":
                        stok = self.advance()
                        args.append(ast.Number(0, text=f'"{stok.text}"', line=stok.line))
                    else:
                        args.append(self.parse_expression())
                    if not self.accept_op(","):
                        break
            self.expect_op(")")
        self.expect_op(";")
        return ast.SysTaskCall(token.text, args, line=token.line)

    def parse_assignment_stmt(self) -> ast.Assignment:
        target = self.parse_lvalue()
        token = self.peek()
        if token.is_op("<="):
            self.advance()
            blocking = False
        elif token.is_op("="):
            self.advance()
            blocking = True
        else:
            raise self.error("expected '=' or '<=' in assignment")
        value = self.parse_expression()
        self.expect_op(";")
        return ast.Assignment(target, value, blocking, line=target.line)

    def parse_lvalue(self) -> ast.Expr:
        if self.peek().is_op("{"):
            return self.parse_concat()
        ident = self.expect_ident()
        expr: ast.Expr = ast.Ident(ident.text, line=ident.line)
        while self.peek().is_op("["):
            self.advance()
            first = self.parse_expression()
            if self.accept_op(":"):
                second = self.parse_expression()
                self.expect_op("]")
                expr = ast.PartSelect(expr, first, second, line=ident.line)
            else:
                self.expect_op("]")
                expr = ast.BitSelect(expr, first, line=ident.line)
        return expr

    # -- expressions ---------------------------------------------------------

    def parse_expression(self) -> ast.Expr:
        return self.parse_ternary()

    def parse_ternary(self) -> ast.Expr:
        cond = self.parse_binary(1)
        if self.accept_op("?"):
            then = self.parse_expression()
            self.expect_op(":")
            other = self.parse_expression()
            return ast.Ternary(cond, then, other, line=cond.line)
        return cond

    def parse_binary(self, min_prec: int) -> ast.Expr:
        lhs = self.parse_unary()
        while True:
            token = self.peek()
            if token.kind != "op":
                break
            prec = BINARY_PRECEDENCE.get(token.text)
            if prec is None or prec < min_prec:
                break
            self.advance()
            rhs = self.parse_binary(prec + 1)
            lhs = ast.Binary(token.text, lhs, rhs, line=token.line)
        return lhs

    def parse_unary(self) -> ast.Expr:
        token = self.peek()
        if token.kind == "op" and token.text in UNARY_OPS:
            self.advance()
            operand = self.parse_unary()
            return ast.Unary(token.text, operand, line=token.line)
        return self.parse_postfix()

    def parse_postfix(self) -> ast.Expr:
        expr = self.parse_primary()
        while self.peek().is_op("["):
            self.advance()
            first = self.parse_expression()
            if self.accept_op(":"):
                second = self.parse_expression()
                self.expect_op("]")
                expr = ast.PartSelect(expr, first, second, line=expr.line)
            else:
                self.expect_op("]")
                expr = ast.BitSelect(expr, first, line=expr.line)
        return expr

    def parse_primary(self) -> ast.Expr:
        token = self.peek()
        if token.kind == "num":
            self.advance()
            try:
                width, value, xmask = parse_number_literal(token.text)
            except ValueError:
                # The lexer admits literals it cannot decode: "4'd_" has no
                # digits, "4'b2" a digit out of base, and a size may be
                # too long for int() or above MAX_LITERAL_WIDTH.
                raise VerilogLexError(
                    f"cannot decode number literal {token.text!r}",
                    token.line) from None
            return ast.Number(value, width, xmask, token.text, line=token.line)
        if token.kind == "id":
            self.advance()
            return ast.Ident(token.text, line=token.line)
        if token.kind == "sys":
            self.advance()
            args: List[ast.Expr] = []
            if self.accept_op("("):
                if not self.peek().is_op(")"):
                    while True:
                        args.append(self.parse_expression())
                        if not self.accept_op(","):
                            break
                self.expect_op(")")
            return ast.SysCall(token.text, args, line=token.line)
        if token.is_op("("):
            self.advance()
            expr = self.parse_expression()
            self.expect_op(")")
            return expr
        if token.is_op("{"):
            return self.parse_concat()
        raise self.error("expected expression")

    def parse_concat(self) -> ast.Expr:
        start = self.expect_op("{")
        first = self.parse_expression()
        if self.peek().is_op("{"):
            # Replication: {count{expr}}
            self.advance()
            value = self.parse_expression()
            self.expect_op("}")
            self.expect_op("}")
            return ast.Repeat(first, value, line=start.line)
        parts = [first]
        while self.accept_op(","):
            parts.append(self.parse_expression())
        self.expect_op("}")
        return ast.Concat(parts, line=start.line)

    # -- SVA ------------------------------------------------------------------

    def parse_property(self) -> ast.PropertyDecl:
        start = self.expect_kw("property")
        name = self.expect_ident().text
        self.expect_op(";")
        clock, disable, body = self.parse_property_spec()
        self.expect_op(";")
        self.expect_kw("endproperty")
        return ast.PropertyDecl(name, clock, disable, body, line=start.line)

    def parse_property_spec(self) -> Tuple[Optional[ast.EdgeSpec],
                                           Optional[ast.Expr], ast.PropExpr]:
        clock = None
        if self.accept_op("@"):
            self.expect_op("(")
            token = self.peek()
            edge = "posedge"
            if token.is_kw("posedge", "negedge"):
                edge = self.advance().text
            signal = self.expect_ident().text
            clock = ast.EdgeSpec(edge, signal, line=token.line)
            self.expect_op(")")
        disable = None
        if self.accept_kw("disable"):
            self.expect_kw("iff")
            self.expect_op("(")
            disable = self.parse_expression()
            self.expect_op(")")
        body = self.parse_prop_expr()
        return clock, disable, body

    def parse_prop_expr(self) -> ast.PropExpr:
        lhs = self.parse_prop_sequence()
        token = self.peek()
        if token.is_op("|->", "|=>"):
            self.advance()
            rhs = self.parse_prop_expr()
            return ast.PropImplication(lhs, rhs, overlapped=(token.text == "|->"),
                                       line=token.line)
        return lhs

    def parse_prop_sequence(self) -> ast.PropExpr:
        if self.peek().is_kw("not"):
            token = self.advance()
            operand = self.parse_prop_sequence()
            return ast.PropNot(operand, line=token.line)
        if self.peek().is_op("##"):
            # Leading delay (common after |->): '##N expr' with no LHS term.
            token = self.advance()
            lo, hi = self.parse_delay_range()
            rhs = self.parse_prop_term()
            lhs: ast.PropExpr = ast.PropDelay(None, lo, hi, rhs, line=token.line)
        else:
            lhs = self.parse_prop_term()
        while self.peek().is_op("##"):
            token = self.advance()
            lo, hi = self.parse_delay_range()
            rhs = self.parse_prop_term()
            lhs = ast.PropDelay(lhs, lo, hi, rhs, line=token.line)
        return lhs

    def parse_delay_range(self) -> Tuple[int, int]:
        if self.accept_op("["):
            lo = self.parse_const_int()
            self.expect_op(":")
            hi = self.parse_const_int()
            self.expect_op("]")
            return lo, hi
        n = self.parse_const_int()
        return n, n

    def parse_prop_term(self) -> ast.PropExpr:
        token = self.peek()
        expr = self.parse_expression()
        return ast.PropBool(expr, line=token.line)

    def parse_assertion(self, label: Optional[str]) -> ast.AssertionItem:
        start = self.expect_kw("assert")
        self.expect_kw("property")
        self.expect_op("(")
        property_name = None
        inline = None
        if (self.peek().kind == "id" and self.peek(1).is_op(")")):
            property_name = self.advance().text
        else:
            clock, disable, body = self.parse_property_spec()
            inline = ast.PropertyDecl(label or "_inline", clock, disable, body,
                                      line=start.line)
        self.expect_op(")")
        message = ""
        if self.accept_kw("else"):
            token = self.peek()
            if token.kind == "sys":
                self.advance()
                if self.accept_op("("):
                    while not self.peek().is_op(")"):
                        tok = self.advance()
                        if tok.kind == "str" and not message:
                            message = tok.text
                        if tok.kind == "eof":
                            raise self.error("unterminated $error call")
                    self.expect_op(")")
            else:
                raise self.error("expected system task after 'else'")
        self.expect_op(";")
        return ast.AssertionItem(label or f"assert_{start.line}", property_name,
                                 inline, message, line=start.line)


def _fold_const(expr: ast.Expr) -> Optional[int]:
    """Constant-fold simple integer expressions (for ranges / delays)."""
    if isinstance(expr, ast.Number):
        return expr.value
    if isinstance(expr, ast.Unary) and expr.op == "-":
        inner = _fold_const(expr.operand)
        return -inner if inner is not None else None
    if isinstance(expr, ast.Binary):
        lhs = _fold_const(expr.lhs)
        rhs = _fold_const(expr.rhs)
        if lhs is None or rhs is None:
            return None
        if expr.op == "+":
            return lhs + rhs
        if expr.op == "-":
            return lhs - rhs
        if expr.op == "*":
            return lhs * rhs
        if expr.op == "/" and rhs != 0:
            return lhs // rhs
    return None


def parse_source(source: str) -> ast.Source:
    """Parse Verilog source text into an AST."""
    return Parser(tokenize(source)).parse_source()


def parse_module(source: str) -> ast.Module:
    """Parse source expected to contain exactly one module."""
    parsed = parse_source(source)
    if len(parsed.modules) != 1:
        raise VerilogParseError(
            f"expected exactly one module, found {len(parsed.modules)}", 1)
    return parsed.modules[0]
