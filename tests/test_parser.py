"""Parser unit tests: structure, precedence, SVA layer, diagnostics."""

import pytest

from repro.verilog import ast
from repro.verilog.compile import compile_source
from repro.verilog.errors import VerilogLexError, VerilogParseError
from repro.verilog.parser import MAX_NESTING, parse_module, parse_source
from repro.verilog.writer import write_expr


def parse_expr(text):
    module = parse_module(f"module t (input a, input b, input c);\n"
                          f"wire [7:0] x;\nwire [7:0] y;\nwire [7:0] z;\n"
                          f"wire [7:0] w;\nassign w = {text};\nendmodule")
    assigns = [i for i in module.items if isinstance(i, ast.ContinuousAssign)]
    return assigns[-1].value


class TestModuleStructure:
    def test_simple_module(self):
        module = parse_module("module m (input a, output b);\n"
                              "assign b = a;\nendmodule")
        assert module.name == "m"
        assert [p.name for p in module.ports] == ["a", "b"]

    def test_port_directions_and_widths(self):
        module = parse_module(
            "module m (input [7:0] a, output reg [3:0] b, inout c);\n"
            "endmodule")
        a, b, c = module.ports
        assert (a.direction, a.msb, a.lsb) == ("input", 7, 0)
        assert b.is_reg and b.width == 4
        assert c.direction == "inout"

    def test_parameterized_range(self):
        module = parse_module(
            "module m (input clk);\nparameter W = 8;\n"
            "reg [W-1:0] r;\nalways @(posedge clk)\nr <= 0;\nendmodule")
        decl = module.decls()[0]
        assert isinstance(decl.msb, ast.Binary)  # folded at elaboration

    def test_multiple_decls_one_statement(self):
        module = parse_module("module m ();\nwire a, b, c;\nendmodule")
        assert [d.name for d in module.decls()] == ["a", "b", "c"]

    def test_decl_with_init(self):
        module = parse_module("module m ();\nreg r = 1'b1;\nendmodule")
        assert module.decls()[0].init is not None

    def test_missing_endmodule(self):
        with pytest.raises(VerilogParseError):
            parse_source("module m ();")

    def test_empty_source(self):
        with pytest.raises(VerilogParseError):
            parse_source("// nothing here")

    def test_two_modules(self):
        source = parse_source("module a ();\nendmodule\n"
                              "module b ();\nendmodule")
        assert [m.name for m in source.modules] == ["a", "b"]

    def test_instance_parsed(self):
        module = parse_module(
            "module top (input x, output y);\n"
            "sub u0 (.a(x), .b(y));\nendmodule")
        inst = [i for i in module.items if isinstance(i, ast.Instance)][0]
        assert inst.module_name == "sub"
        assert [c[0] for c in inst.connections] == ["a", "b"]


class TestStatements:
    def _always_body(self, body):
        module = parse_module(
            f"module m (input clk, input a, input b);\n"
            f"reg [3:0] r;\nreg [3:0] s;\n"
            f"always @(posedge clk) {body}\nendmodule")
        blocks = [i for i in module.items if isinstance(i, ast.AlwaysBlock)]
        return blocks[0].body

    def test_nonblocking_assignment(self):
        stmt = self._always_body("r <= a;")
        assert isinstance(stmt, ast.Assignment) and not stmt.blocking

    def test_blocking_assignment(self):
        stmt = self._always_body("r = a;")
        assert stmt.blocking

    def test_if_else_chain(self):
        stmt = self._always_body(
            "begin if (a) r <= 0; else if (b) r <= 1; else r <= 2; end")
        outer = stmt.stmts[0]
        assert isinstance(outer, ast.If)
        assert isinstance(outer.other, ast.If)

    def test_case_with_default(self):
        stmt = self._always_body(
            "case (r)\n2'd0: s <= 1;\n2'd1, 2'd2: s <= 2;\n"
            "default: s <= 0;\nendcase")
        assert isinstance(stmt, ast.Case)
        assert len(stmt.items) == 3
        assert stmt.items[1].labels and len(stmt.items[1].labels) == 2
        assert stmt.items[2].is_default

    def test_empty_statement(self):
        stmt = self._always_body(";")
        assert isinstance(stmt, ast.Block) and not stmt.stmts

    def test_sensitivity_list_edges(self):
        module = parse_module(
            "module m (input clk, input rst_n);\nreg r;\n"
            "always @(posedge clk or negedge rst_n) r <= 1;\nendmodule")
        block = [i for i in module.items if isinstance(i, ast.AlwaysBlock)][0]
        assert [(e.edge, e.signal) for e in block.edges] == \
            [("posedge", "clk"), ("negedge", "rst_n")]

    def test_comb_star(self):
        module = parse_module("module m (input a);\nreg r;\n"
                              "always @(*) r = a;\nendmodule")
        block = [i for i in module.items if isinstance(i, ast.AlwaysBlock)][0]
        assert block.comb

    def test_missing_semicolon_raises(self):
        with pytest.raises(VerilogParseError):
            parse_module("module m (input a);\nwire w\nendmodule")


class TestExpressions:
    def test_precedence_mul_over_add(self):
        expr = parse_expr("x + y * z")
        assert isinstance(expr, ast.Binary) and expr.op == "+"
        assert isinstance(expr.rhs, ast.Binary) and expr.rhs.op == "*"

    def test_precedence_compare_over_logical(self):
        expr = parse_expr("x == y && a")
        assert expr.op == "&&"
        assert expr.lhs.op == "=="

    def test_parenthesized_grouping(self):
        expr = parse_expr("(x + y) * z")
        assert expr.op == "*"
        assert expr.lhs.op == "+"

    def test_ternary(self):
        expr = parse_expr("a ? x : y")
        assert isinstance(expr, ast.Ternary)

    def test_nested_ternary_right_assoc(self):
        expr = parse_expr("a ? x : b ? y : z")
        assert isinstance(expr.other, ast.Ternary)

    def test_unary_reduction(self):
        expr = parse_expr("^x")
        assert isinstance(expr, ast.Unary) and expr.op == "^"

    def test_bit_select(self):
        expr = parse_expr("x[3]")
        assert isinstance(expr, ast.BitSelect)

    def test_part_select(self):
        expr = parse_expr("x[7:4]")
        assert isinstance(expr, ast.PartSelect)

    def test_concat(self):
        expr = parse_expr("{x, y, z}")
        assert isinstance(expr, ast.Concat) and len(expr.parts) == 3

    def test_replication(self):
        expr = parse_expr("{4{a}}")
        assert isinstance(expr, ast.Repeat)

    def test_syscall_in_expression(self):
        expr = parse_expr("$countones(x)")
        assert isinstance(expr, ast.SysCall) and expr.name == "$countones"

    def test_write_expr_minimal_parens(self):
        expr = parse_expr("(x + y) * z")
        assert write_expr(expr) == "(x + y) * z"
        expr2 = parse_expr("x + y * z")
        assert write_expr(expr2) == "x + y * z"


class TestSvaParsing:
    SOURCE = """
module m (input clk, input rst_n, input a, input b);
  property p1;
    @(posedge clk) disable iff (!rst_n) a |-> ##1 b;
  endproperty
  p1_assert: assert property (p1) else $error("message text");
  inline_check: assert property (@(posedge clk) a |=> b);
endmodule
"""

    def test_property_declaration(self):
        module = parse_module(self.SOURCE)
        prop = module.properties()[0]
        assert prop.name == "p1"
        assert prop.clock.signal == "clk"
        assert prop.disable is not None

    def test_implication_structure(self):
        module = parse_module(self.SOURCE)
        body = module.properties()[0].body
        assert isinstance(body, ast.PropImplication) and body.overlapped
        assert isinstance(body.consequent, ast.PropDelay)
        assert body.consequent.lo == 1

    def test_assertion_binding(self):
        module = parse_module(self.SOURCE)
        assertion = module.assertions()[0]
        assert assertion.label == "p1_assert"
        assert assertion.property_name == "p1"
        assert assertion.message == "message text"

    def test_inline_assertion(self):
        module = parse_module(self.SOURCE)
        inline = module.assertions()[1]
        assert inline.inline is not None
        body = inline.inline.body
        assert isinstance(body, ast.PropImplication) and not body.overlapped

    def test_delay_range(self):
        module = parse_module(
            "module m (input clk, input a, input b);\n"
            "property p;\n@(posedge clk) a |-> ##[1:3] b;\nendproperty\n"
            "c: assert property (p);\nendmodule")
        body = module.properties()[0].body
        assert (body.consequent.lo, body.consequent.hi) == (1, 3)

    def test_not_property(self):
        module = parse_module(
            "module m (input clk, input a);\n"
            "property p;\n@(posedge clk) not (a);\nendproperty\n"
            "c: assert property (p);\nendmodule")
        assert isinstance(module.properties()[0].body, ast.PropNot)


#: Literals the lexer admits but cannot decode: sizes whose ``1 << width``
#: overflows or cannot be allocated, and a non-ASCII digit; one batch must
#: not fail on them.
HOSTILE_LITERALS = ("99999999999999999999999999999999999999999999999999'h1",
                    "999999999999999999'h1", "1000000000'h1", "\u00b2")


def with_literal(literal: str) -> str:
    return ("module m (input a, output y);\n"
            f"  assign y = a & {literal};\n"
            "endmodule\n")


class TestUndecodableLiterals:
    @pytest.mark.parametrize("literal", HOSTILE_LITERALS)
    def test_compile_reports_instead_of_raising(self, literal):
        result = compile_source(with_literal(literal), use_cache=False)
        assert not result.ok
        assert [d.line for d in result.errors()] == [2]

    @pytest.mark.parametrize("literal", ["4'd_", "4'b2", "4'dA"])
    def test_bad_digits_are_lex_errors_at_their_line(self, literal):
        with pytest.raises(VerilogLexError) as info:
            parse_module(with_literal(literal))
        assert info.value.line == 2
        assert literal in info.value.message


def nested(body: str) -> str:
    """A module whose line 3 holds ``body``."""
    return ("module m (input clk, input a, input [3:0] b);\n"
            "  reg q; wire y;\n"
            f"  {body}\n"
            "endmodule\n")


#: Nesting probes: ``n`` -> source, and the ``n`` that nests exactly
#: MAX_NESTING deep (the item is level 1; see MAX_NESTING).
NESTING_PROBES = {
    "if": (lambda n: nested("always @(posedge clk) " + "if (a) " * n
                            + "q <= 1'b1;"), MAX_NESTING - 3),
    "ternary": (lambda n: nested("assign y = " + "a ? " * n + "a"
                                 + " : a" * n + ";"), MAX_NESTING - 2),
    "parenthesis": (lambda n: nested("assign y = " + "(" * n + "a"
                                     + ")" * n + ";"), MAX_NESTING - 2),
    "mixed": (lambda n: nested("always @(posedge clk) " + "if (a) " * (n // 2)
                               + "q <= " + "a ? " * (n - n // 2) + "a"
                               + " : a" * (n - n // 2) + ";"),
              MAX_NESTING - 3),
    "flat_sum": (lambda n: nested("assign y = " + " + ".join(["a"] * n)
                                  + ";"), MAX_NESTING - 1),
    "unary": (lambda n: nested("assign y = " + "~" * n + "a;"),
              MAX_NESTING - 2),
    "selects": (lambda n: nested("assign y = b" + "[0]" * n + ";"),
                MAX_NESTING - 2),
    "initializer": (lambda n: nested("wire w = " + " + ".join(["a"] * n)
                                     + ";"), MAX_NESTING - 1),
    "parameter": (lambda n: nested("parameter P = " + " + ".join(["1"] * n)
                                   + ";"), MAX_NESTING - 1),
    "range": (lambda n: nested("wire [" + " + ".join(["1"] * n) + ":0] w;"),
              MAX_NESTING - 1),
    "delays": (lambda n: nested("assert property (@(posedge clk) a"
                                + " ##1 a" * n + ");"), MAX_NESTING - 4),
    "implications": (lambda n: nested("assert property (@(posedge clk) "
                                      + "a |-> " * n + "a);"),
                     MAX_NESTING - 4),
}


class TestNestingBound:
    """Nesting past MAX_NESTING is a compile error at its line, whoever
    calls: never a RecursionError, and never a design the simulation
    tiers cannot run."""

    @pytest.mark.parametrize("probe", sorted(NESTING_PROBES))
    def test_at_the_bound_compiles(self, probe):
        build, at_bound = NESTING_PROBES[probe]
        result = compile_source(build(at_bound), use_cache=False)
        assert result.ok, result.failure_summary()

    @pytest.mark.parametrize("probe", sorted(NESTING_PROBES))
    @pytest.mark.parametrize("past", [1, 250, 1000])
    def test_past_the_bound_is_an_error_at_its_line(self, probe, past):
        build, at_bound = NESTING_PROBES[probe]
        result = compile_source(build(at_bound + past), use_cache=False)
        assert not result.ok
        assert [(d.line, d.message) for d in result.errors()] == \
            [(3, f"nesting deeper than {MAX_NESTING} levels")]
        with pytest.raises(VerilogParseError):
            parse_source(build(at_bound + past))

    def test_deep_statement_nesting_stops_early(self):
        build, _ = NESTING_PROBES["if"]
        assert not compile_source(build(20_000), use_cache=False).ok
