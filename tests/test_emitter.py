"""The generated-code tier against the interpreter, construct by construct.

``tests/test_compiled.py`` checks the two tiers over every corpus family;
this module reaches what the corpus rarely does.  A property test draws
random four-state expressions and compares the interpreter's
:class:`Evaluator` with the emitted code, value for value and error
message for error message.  Targeted tests cover X-select poisoning,
wildcard cases, concat and part-select write targets, the comb-loop
settle error, temporal functions near cycle 0 and ``disable iff``, and
concat targets the interpreter rejects or sizes from live values; and
two tests check the code cache: a constant nudge shares emitted text but
not constants, and the text does not depend on the hash seed.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
from tiers import TIERS, on_tier

from repro.bugs.mutators import SiteTable
from repro.sim import compiled
from repro.sim.compiled import CompiledSimulator, compile_program, make_simulator
from repro.sim.eval import EvalError, Evaluator
from repro.sim.simulator import SimulationError, Simulator
from repro.sim.stimulus import reset_sequence, toggle_sequence
from repro.sim.values import FourState
from repro.sva.bmc import BmcConfig, bounded_check, bounded_check_batch
from repro.sva.insert import compile_with_sva
from repro.sva.monitor import PropertyChecker, _prop_program
from repro.verilog import ast
from repro.verilog.compile import compile_source
from repro.verilog.parser import parse_module

ROOT = Path(__file__).resolve().parents[1]

# -- property test: expressions ------------------------------------------------

SIGNALS = {"a": 1, "b": 4, "c": 8, "d": 16, "e": 3}
PROBE_SOURCE = """module probe (input clk, input a, input [3:0] b, input [7:0] c,
  input [15:0] d, input [2:0] e);
  parameter P = 5;
endmodule
"""


@pytest.fixture(scope="module")
def probe_design():
    result = compile_source(PROBE_SOURCE)
    assert result.ok, result.failure_summary()
    return result.design


def _number(width, value, xmask):
    if width is None:
        return ast.Number(value & 0xFFFFFFFF, None, xmask & 0xFFFFFFFF)
    mask = (1 << width) - 1
    return ast.Number(value & mask, width, xmask & mask)


# Half of the values carry X bits, so known bits meet X bits often.
xmasks = st.one_of(st.just(0), st.integers(0, (1 << 16) - 1))
numbers = st.builds(_number, st.one_of(st.none(), st.integers(1, 16)),
                    st.integers(0, 1 << 16), xmasks)
small = st.builds(_number, st.just(5), st.integers(0, 20),
                  st.sampled_from([0, 0, 0, 1]))
leaves = st.one_of(
    numbers, small,
    st.sampled_from(sorted(SIGNALS) + ["P", "nowhere"]).map(ast.Ident))
# Bounded operands for selects and replication counts: a 16-bit index
# would build 65536-bit values.
bounds = st.one_of(small, st.just(ast.Ident("e")))

UNARY = ["~", "!", "-", "+", "&", "|", "^"]
BINARY = sorted(Evaluator._BINARY_DISPATCH) + ["!=="]
SYSCALLS = ["$signed", "$unsigned", "$countones", "$onehot", "$onehot0",
            "$past"]


def _extend(children):
    return st.one_of(
        st.builds(ast.Unary, st.sampled_from(UNARY), children),
        st.builds(ast.Binary, st.sampled_from(BINARY), children, children),
        st.builds(ast.Binary, st.sampled_from(["<<", ">>", "<<<", ">>>"]),
                  children, bounds),
        st.builds(ast.Ternary, children, children, children),
        st.builds(ast.BitSelect, children, st.one_of(bounds, children)),
        st.builds(ast.PartSelect, children, bounds, bounds),
        st.builds(ast.Concat, st.lists(children, min_size=0, max_size=3)),
        st.builds(ast.Repeat, bounds, children),
        st.builds(lambda name, arg: ast.SysCall(name, [arg]),
                  st.sampled_from(SYSCALLS), children),
    )


expressions = st.recursive(leaves, _extend, max_leaves=12)


def _value(width, value, xmask):
    return FourState(width, value, xmask)


environments = st.fixed_dictionaries({
    name: st.builds(_value, st.just(width), st.integers(0, (1 << width) - 1),
                    xmasks)
    for name, width in SIGNALS.items()})


def _outcome(fn):
    try:
        return ("value", fn())
    except Exception as exc:  # noqa: BLE001 - the outcome is compared
        return ("error", type(exc).__name__, str(exc))


def _emitted(design, expr):
    """``expr`` emitted as ``probe(v)`` over the design's slot list."""
    emitter = compiled._RtlEmitter(design)
    emitter._begin()
    text, _, _ = emitter.expr(expr)
    emitter.line(f"return {text}")
    return emitter._finish("probe")[0]


def _interpreted(design, env, expr):
    def lookup(name):
        try:
            return env[name]
        except KeyError:
            raise EvalError(f"no such signal '{name}'") from None
    return Evaluator(lookup, design.params).eval(expr)


x_select = ast.Ternary(ast.Ident("a"), ast.Ident("c"), ast.Ident("b"))
X_ENV = {"a": FourState.unknown(1), "b": FourState(4, 5),
         "c": FourState(8, 0x15, 0x2), "d": FourState(16, 7),
         "e": FourState(3, 7)}


@settings(derandomize=True, max_examples=400, deadline=None)
@given(expr=expressions, env=environments)
@example(expr=x_select, env=X_ENV)
@example(expr=ast.BitSelect(ast.Ident("c"), ast.Number(0, 1, 1)), env=X_ENV)
@example(expr=ast.BitSelect(ast.Ident("b"), ast.Ident("e")), env=X_ENV)
@example(expr=ast.PartSelect(ast.Ident("d"), ast.Number(20, 5),
                             ast.Number(0, 1, 1)), env=X_ENV)
@example(expr=ast.Repeat(ast.Number(0, 2, 3), ast.Ident("a")), env=X_ENV)
@example(expr=ast.Binary("<<", ast.Ident("b"), ast.Number(9, 4)), env=X_ENV)
@example(expr=ast.Binary("==", ast.Ident("c"), ast.Number(0x15, 32, 2)),
         env=X_ENV)
@example(expr=ast.Concat([]), env=X_ENV)
@example(expr=ast.Binary("|", ast.Ident("c"), ast.Ident("d")), env=X_ENV)
def test_emitted_expressions_match_the_interpreter(probe_design, expr, env):
    values = [env.get(name, FourState(1, 0)) for name in probe_design.symbols]
    emitted = _outcome(lambda: _emitted(probe_design, expr)(values))
    interpreted = _outcome(lambda: _interpreted(probe_design, env, expr))
    assert emitted == interpreted


# -- targeted differential tests -------------------------------------------------

def _design(source, sva=()):
    result = compile_with_sva(source, list(sva)) if sva else \
        compile_source(source)
    assert result.ok, result.failure_summary()
    return result.design


def _run(simulator, stimulus):
    try:
        return simulator.run(stimulus).snapshots
    except (SimulationError, EvalError) as exc:
        return (type(exc).__name__, str(exc))


def _assert_tiers_agree(design, depth=8):
    compiled_sim = make_simulator(design)
    interp_sim = Simulator(design)
    stimuli = [toggle_sequence(design, depth, 0, 2),
               toggle_sequence(design, depth, 1, 2),
               toggle_sequence(design, depth, 0, 0)]
    stimuli += [reset_sequence(design, depth, random.Random(seed), 2)
                for seed in range(6)]
    for stimulus in stimuli:
        assert _run(compiled_sim, stimulus) == _run(interp_sim, stimulus)


X_POISON = """module xpoison (input clk, input rst_n, input a, input [3:0] b,
  output reg [3:0] q, output reg [3:0] r, output reg [3:0] y);
  reg u;
  always @(posedge clk) begin
    if (u)
      q <= b;
    else begin
      q <= 4'd1;
      r <= b;
    end
    if (a)
      r <= r + 4'd1;
  end
  always @(*) begin
    if (u)
      y = b;
    else
      y = 4'd0;
  end
endmodule
"""

WILDCARDS = """module wild (input clk, input [3:0] s, input [3:0] t,
  output reg [1:0] y, output reg [1:0] z, output reg [1:0] w);
  always @(*) begin
    casez (s)
      4'b1???: y = 2'd3;
      4'b01?z: y = 2'd2;
      4'b001x: y = 2'd1;
      default: y = 2'd0;
    endcase
    casex (s ^ t)
      4'bx1x1: z = 2'd1;
      4'b1xx0, 4'b0000: z = 2'd2;
      default: z = 2'd3;
    endcase
    case (s)
      t: w = 2'd1;
      4'bxx00: w = 2'd2;
      default: w = 2'd0;
    endcase
  end
endmodule
"""

WRITE_TARGETS = """module targets (input clk, input rst_n, input [7:0] d,
  input [2:0] i, output reg [3:0] hi, output reg [3:0] lo,
  output reg [7:0] q, output reg [7:0] p, output [3:0] a, output [3:0] b,
  output reg [7:0] m, output reg [1:0] k);
  assign {a, b} = d;
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) begin
      q <= 8'd0;
      p = 8'd0;
    end else begin
      {hi, lo} <= {d[3:0], d[7:4]};
      q[7:4] <= d[3:0];
      q[i] <= d[0];
      p[3:0] = d[7:4];
      p[i] = ~p[0];
      {k, p[6:5]} = d[3:0];
    end
  end
  always @(*) begin
    m = d;
    m[i] = 1'b0;
    m[7:6] = d[1:0];
    {m[5], m[4]} = 2'b10;
  end
endmodule
"""

BAD_CONCAT_TARGET = """module badcat (input clk, input [3:0] a, input [7:0] d,
  output reg [3:0] q);
  always @(posedge clk) {{q, {part}}} <= d;
endmodule
"""

LIVE_BOUNDS = """module live (input clk, input rst_n, input [3:0] a, input [7:0] d,
  output reg q, output reg [7:0] r, output reg [2:0] k, output [7:0] y,
  output reg [7:0] z);
  assign {y[7:4], y[a[1:0]:0]} = {d, d};
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) begin
      k = 3'd0;
      r <= 8'd0;
    end else begin
      k = k + a[2:0];
      {q, r[a[1:0]:0]} <= d;
      {r[7], r[k:4]} <= {a, a};
    end
  end
  always @(*) begin
    z = d;
    {z[a[2:0]:1], z[0]} = ~d;
  end
endmodule
"""

COMB_LOOP = """module loop (input clk, input a, output reg x, output y);
  assign y = a;
  always @(*) x = x === 1'b0 ? 1'b1 : 1'b0;
endmodule
"""


class TestTargetedDifferential:
    def test_x_select_poisoning(self):
        _assert_tiers_agree(_design(X_POISON))

    def test_casez_casex_wildcards(self):
        _assert_tiers_agree(_design(WILDCARDS))

    def test_concat_and_part_select_write_targets(self):
        _assert_tiers_agree(_design(WRITE_TARGETS))

    def test_comb_loop_settle_error(self):
        design = _design(COMB_LOOP)
        stimulus = toggle_sequence(design, 4, 0, 1)
        outcome = _run(make_simulator(design), stimulus)
        assert outcome == _run(Simulator(design), stimulus)
        assert outcome[0] == "SimulationError"
        assert "failed to settle" in outcome[1]

    @pytest.mark.parametrize("part", ["1'b0", "a + 4'd1", "{q, 2'd0}"])
    def test_concat_part_that_is_no_target(self, part):
        """The interpreter raises at the statement; so does the program."""
        design = _design(BAD_CONCAT_TARGET.format(part=part))
        stimulus = toggle_sequence(design, 4, 0, 1)
        outcome = _run(make_simulator(design), stimulus)
        assert outcome == _run(Simulator(design), stimulus)
        assert outcome == ("SimulationError", "bad assignment target")

    def test_concat_part_select_with_live_bounds(self):
        """Widths from committed values, written bounds from scratch ones."""
        _assert_tiers_agree(_design(LIVE_BOUNDS), depth=10)


TEMPORAL = """module temporal (input clk, input rst_n, input a, input [3:0] b,
  output reg [3:0] q);
  always @(posedge clk or negedge rst_n)
    if (!rst_n) q <= 4'd0; else if (a) q <= b;
endmodule
"""

TEMPORAL_SVA = [
    "t_rose: assert property (@(posedge clk) $rose(a) |-> q == $past(q));",
    "t_fell: assert property (@(posedge clk) $fell(a) |=> $stable(q));",
    "t_deep: assert property (@(posedge clk) $past(b, 6) != 4'd9);",
    "t_nest: assert property (@(posedge clk) $past($rose(a), 2) |-> a);",
    "t_dis: assert property (@(posedge clk) disable iff (!rst_n) "
    "a |-> ##[1:2] q == $past(b));",
    "t_disx: assert property (@(posedge clk) disable iff (q[3]) "
    "!a ##1 a |-> $stable(b));",
]


class TestTemporalAndDisable:
    @pytest.fixture(scope="class")
    def design(self):
        design = _design(TEMPORAL, TEMPORAL_SVA)
        assert len(design.assertions) == len(TEMPORAL_SVA)
        return design

    def test_every_cycle_from_zero_matches_the_interpreter(self, design):
        """Property functions at every start cycle, cycle 0 and past the
        end included, against the interpreting checker."""
        program = _prop_program(design)
        simulator = Simulator(design)
        for seed in range(8):
            trace = simulator.run(
                reset_sequence(design, 8, random.Random(seed), 1))
            checker = PropertyChecker(design, trace)
            for assertion in design.assertions:
                body = program.prop_fn(assertion.prop.body)
                disable = assertion.prop.disable
                disabled = (program.disabled_fn(disable)
                            if disable is not None else None)
                for cycle in range(len(trace) + 2):
                    expected = checker.eval_prop(assertion.prop.body, cycle)
                    assert body(trace.snapshots, cycle) == expected, \
                        (assertion.label, cycle)
                    if disabled is not None and cycle < len(trace):
                        assert bool(disabled(trace.snapshots, cycle)) == \
                            (not checker._eval_bool(disable,
                                                    cycle).is_false())

    @pytest.mark.parametrize("reset_cycles", [0, 1, 2])
    def test_bounded_checks_agree(self, design, reset_cycles):
        for check, key in (
                (bounded_check, lambda r: (r.failed, r.stimuli_tried,
                                           r.sim_error,
                                           [f.log_line() for f in r.failures])),
                (bounded_check_batch, lambda r: (r.failed_labels,
                                                 r.error_labels,
                                                 r.stimuli_tried,
                                                 r.design_error))):
            for coverage in (False, True):
                results = []
                for tier in TIERS:
                    with on_tier(tier):
                        results.append(key(check(design, BmcConfig(
                            depth=6, random_trials=6,
                            reset_cycles=reset_cycles, coverage=coverage))))
                assert results[0] == results[1]


# -- code cache ------------------------------------------------------------------

NUDGE_GOLDEN = """module nudge (input clk, input rst_n, input en,
  output reg [3:0] count, output wrap);
  assign wrap = en && count == 4'd5;
  always @(posedge clk or negedge rst_n)
    if (!rst_n) count <= 4'd0;
    else if (en) count <= count == 4'd5 ? 4'd0 : count + 4'd1;
endmodule
"""


def _const_nudges(source):
    """Every const_nudge mutant of ``source`` that compiles."""
    table = SiteTable(parse_module(source))
    mutants = []
    for candidate in table.candidates:
        if candidate.op_name != "const_nudge":
            continue
        edit = table.edit(candidate)
        if edit is None:
            continue
        lines = list(table.lines)
        lines[edit.line - 1] = edit.edited_line
        # Uncached: a fresh design, so its program is emitted again.
        result = compile_source("\n".join(lines) + "\n", use_cache=False)
        if result.ok:
            mutants.append(result.design)
    return mutants


class TestCodeCache:
    def test_const_nudge_shares_text_not_constants(self):
        golden = _design(NUDGE_GOLDEN)
        mutants = _const_nudges(NUDGE_GOLDEN)
        assert mutants
        golden_program = compile_program(golden)
        interp_golden = Simulator(golden)
        stimuli = [reset_sequence(golden, 16, random.Random(seed), 2)
                   for seed in range(4)]
        for mutant in mutants:
            program = compile_program(mutant)
            assert program.source == golden_program.source
            assert program.settle.__code__ is golden_program.settle.__code__
            assert program.edge.__code__ is golden_program.edge.__code__
            assert program.settle.__globals__ is not \
                golden_program.settle.__globals__
            interp_mutant = Simulator(mutant)
            for stimulus in stimuli:
                compiled_pair = (_run(CompiledSimulator(golden_program),
                                      stimulus),
                                 _run(CompiledSimulator(program), stimulus))
                interp_pair = (_run(interp_golden, stimulus),
                               _run(interp_mutant, stimulus))
                assert compiled_pair == interp_pair

    def test_counters_report_hits_and_misses(self):
        before = compiled.sim_program_counters()
        for mutant in _const_nudges(NUDGE_GOLDEN):
            compile_program(mutant)
        after = compiled.sim_program_counters()
        assert after["code_cache_hits"] > before["code_cache_hits"]
        assert after["code_cache_misses"] >= before["code_cache_misses"]
        assert len(compiled._CODE) <= compiled.CODE_CACHE_ENTRIES


def test_programs_are_freed_with_their_design():
    """The per-design caches are weak-keyed; their values must not keep
    the design alive."""
    import gc
    import weakref

    from repro.sva.monitor import IncrementalChecker

    design = compile_source(NUDGE_GOLDEN, use_cache=False).design
    make_simulator(design)
    IncrementalChecker(design, 1)
    alive = weakref.ref(design)
    del design
    gc.collect()
    assert alive() is None


EMIT_ALL_FAMILIES = """
import hashlib
from repro.corpus.generator import CorpusGenerator
from repro.corpus.registry import TEMPLATE_FAMILIES
from repro.engine.rng import derive_rng
from repro.oracles.sva import SvaOracle
from repro.sim import compiled
from repro.sva.insert import compile_with_sva
from repro.sva.monitor import IncrementalChecker

digest = hashlib.sha256()
for family in sorted(TEMPLATE_FAMILIES):
    seed = CorpusGenerator(seed=77).generate_one(family=family)
    oracle = SvaOracle(derive_rng(77, "test_compiled", family))
    blocks = [block for proposal in oracle.propose(seed)
              if compile_with_sva(seed.source, proposal.blocks()).ok
              for block in proposal.blocks()]
    design = compile_with_sva(seed.source, blocks).design
    digest.update(compiled.compile_program(design).source.encode())
    IncrementalChecker(design, 1, quality=True)
for text in compiled._CODE._entries:
    digest.update(text.encode())
print(digest.hexdigest())
"""


def test_emitted_text_is_independent_of_the_hash_seed():
    digests = set()
    for hash_seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=str(ROOT / "src"))
        out = subprocess.run([sys.executable, "-c", EMIT_ALL_FAMILIES],
                             env=env, capture_output=True, text=True,
                             check=True, timeout=300)
        digests.add(out.stdout.strip())
    assert len(digests) == 1
