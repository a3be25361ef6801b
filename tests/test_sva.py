"""SVA monitor + BMC tests: verdicts, temporal functions, counterexamples."""

import random

import pytest

from repro.bugs.injector import BugInjector
from repro.corpus.generator import CorpusGenerator
from repro.corpus.registry import TEMPLATE_FAMILIES
from repro.sim.compiled import SIM_MODES, CompiledSimulator, make_simulator
from repro.sim.eval import EvalError
from repro.sim.simulator import SimulationError, Simulator
from repro.sim.stimulus import Stimulus, enumerate_exhaustive
from repro.sva import bmc
from repro.sva.bmc import BmcConfig, bounded_check, bounded_check_batch
from repro.sva.insert import compile_with_sva
from repro.sva.monitor import IncrementalChecker
from repro.verilog.compile import compile_source
from repro.verilog.writer import write_module


def check(source, vectors, reset_cycles=2):
    result = compile_source(source)
    assert result.ok, result.failure_summary()
    sim = Simulator(result.design)
    checker = IncrementalChecker(result.design, reset_cycles + 1,
                                 exhaustive=True)
    checker.start(sim.run(Stimulus(vectors, reset_cycles)))
    checker.finalize()
    return checker.failures


BASE = """
module m (input clk, input rst_n, input a, output reg b);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) b <= 1'b0;
    else b <= a;
  end
  property follows;
    @(posedge clk) disable iff (!rst_n) a |-> ##1 b;
  endproperty
  follows_assertion: assert property (follows) else $error("b must follow a");
endmodule
"""


class TestMonitorBasics:
    def test_holding_property_reports_nothing(self):
        assert check(BASE, [{"a": 1}] * 6) == []

    def test_violated_property_reports_failure(self):
        buggy = BASE.replace("b <= a;", "b <= !a;")
        failures = check(buggy, [{"a": 1}] * 6)
        assert failures
        assert failures[0].label == "follows_assertion"
        assert "b must follow a" in failures[0].log_line()

    def test_vacuous_antecedent_passes(self):
        assert check(BASE, [{"a": 0}] * 6) == []

    def test_failure_log_format(self):
        buggy = BASE.replace("b <= a;", "b <= !a;")
        failures = check(buggy, [{"a": 1}] * 6)
        line = failures[0].log_line()
        assert line.startswith("failed assertion m.follows_assertion at cycle")

    def test_disable_iff_masks_reset_period(self):
        # During the reset preamble rst_n is low: no failures there even
        # though b is held at 0 while a is forced 0 -> vacuous anyway;
        # the skip_cycles logic is covered by checking cycle indices.
        buggy = BASE.replace("b <= a;", "b <= !a;")
        failures = check(buggy, [{"a": 1}] * 6)
        assert all(f.start_cycle >= 3 for f in failures)

    def test_end_of_trace_obligation_undetermined(self):
        # A failing consequent one past the end must not be reported.
        failures = check(BASE, [{"a": 1}])
        assert failures == []


class TestTemporalFunctions:
    PAST = """
module m (input clk, input rst_n, input [3:0] d, output reg [3:0] q);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) q <= 4'd0;
    else q <= d;
  end
  property captures;
    @(posedge clk) disable iff (!rst_n) q == $past(d);
  endproperty
  captures_assertion: assert property (captures) else $error("q lags d");
endmodule
"""

    def test_past_holds_on_register(self):
        vectors = [{"d": v} for v in (1, 2, 3, 4, 5)]
        assert check(self.PAST, vectors) == []

    def test_past_detects_broken_register(self):
        buggy = self.PAST.replace("q <= d;", "q <= d + 4'd1;")
        vectors = [{"d": v} for v in (1, 2, 3, 4, 5)]
        assert check(buggy, vectors)

    ROSE = """
module m (input clk, input rst_n, input s, output reg seen);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) seen <= 1'b0;
    else seen <= s;
  end
  property rise_flags;
    @(posedge clk) disable iff (!rst_n) $rose(s) |-> ##1 seen;
  endproperty
  rise_assertion: assert property (rise_flags) else $error("rise missed");
endmodule
"""

    def test_rose(self):
        assert check(self.ROSE, [{"s": 0}, {"s": 1}, {"s": 1}, {"s": 0}]) == []
        buggy = self.ROSE.replace("seen <= s;", "seen <= 1'b0;")
        assert check(buggy, [{"s": 0}, {"s": 1}, {"s": 1}, {"s": 0}])

    def test_stable(self):
        source = """
module m (input clk, input rst_n, input s, output reg mirror);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) mirror <= 1'b0;
    else mirror <= mirror;
  end
  property held;
    @(posedge clk) disable iff (!rst_n) $stable(mirror);
  endproperty
  held_assertion: assert property (held) else $error("mirror moved");
endmodule
"""
        assert check(source, [{"s": 0}] * 5) == []


class TestDelayRanges:
    RANGED = """
module m (input clk, input rst_n, input go, output reg [1:0] cnt, output reg done);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) cnt <= 2'd0;
    else if (go || cnt != 2'd0) cnt <= cnt + 2'd1;
  end
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) done <= 1'b0;
    else done <= cnt == 2'd3;
  end
  property eventually_done;
    @(posedge clk) disable iff (!rst_n) go && cnt == 2'd0 |-> ##[1:6] done;
  endproperty
  eventually_assertion: assert property (eventually_done) else $error("no done");
endmodule
"""

    # Checking starts one cycle after reset release, so the trigger is
    # driven at the third post-reset vector.
    VECTORS = [{"go": 0}, {"go": 0}, {"go": 1}] + [{"go": 0}] * 8

    def test_window_match_passes(self):
        assert check(self.RANGED, self.VECTORS) == []

    def test_window_miss_fails(self):
        buggy = self.RANGED.replace("##[1:6]", "##[1:2]")
        assert check(buggy, self.VECTORS)


class TestBmc:
    def test_golden_accu_passes_bound(self, accu_source):
        result = compile_source(accu_source)
        assert bounded_check(result.design,
                             BmcConfig(depth=10, random_trials=24)).passed_bound

    def test_buggy_accu_fails(self, accu_buggy_source):
        result = compile_source(accu_buggy_source)
        outcome = bounded_check(result.design,
                                BmcConfig(depth=10, random_trials=24))
        assert outcome.failed
        assert outcome.trace is not None
        assert outcome.stimulus is not None
        assert "valid_out" in outcome.log_text()

    def test_no_assertions_trivially_passes(self):
        result = compile_source(
            "module empty (input clk, input rst_n, input a, output wire b);\n"
            "assign b = a;\nendmodule")
        outcome = bounded_check(result.design)
        assert outcome.passed_bound and outcome.stimuli_tried == 0

    def test_exhaustive_mode_for_tiny_inputs(self):
        source = """
module tiny (input clk, input rst_n, input a, output reg b);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) b <= 1'b0;
    else b <= a;
  end
  property p;
    @(posedge clk) disable iff (!rst_n) a |-> ##1 b;
  endproperty
  p_assertion: assert property (p);
endmodule
"""
        result = compile_source(source)
        outcome = bounded_check(result.design,
                                BmcConfig(depth=3, exhaustive_bits=4))
        assert outcome.passed_bound
        assert outcome.stimuli_tried == 8  # 2^(1 input bit * 3 cycles)

    def test_deterministic_counterexample(self, accu_buggy_source):
        result = compile_source(accu_buggy_source)
        config = BmcConfig(depth=10, random_trials=24)
        first = bounded_check(result.design, config)
        second = bounded_check(result.design, config)
        assert first.log_text() == second.log_text()

    VOIDED = """
module m (input clk, input rst_n, input a, output reg b);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) b <= 1'b0;
    else b <= a;
  end
  property unknown_check;
    @(posedge clk) disable iff (!rst_n) a |-> $isunknown(b);
  endproperty
  unknown_assertion: assert property (unknown_check);
  property follows;
    @(posedge clk) disable iff (!rst_n) a |-> ##1 b;
  endproperty
  follows_assertion: assert property (follows);
endmodule
"""

    @pytest.mark.parametrize("sim_mode", ["compiled", "interp"])
    def test_property_error_voids_the_stimulus(self, sim_mode):
        # The first assertion cannot be evaluated once `a` rises; the
        # second holds.  The error voids the check, and the scan stops at
        # the raising assertion: the second one's counters never see the
        # voiding stimulus.
        design = compile_source(self.VOIDED).design
        outcome = bounded_check(design, BmcConfig(depth=6, random_trials=8,
                                                  sim_mode=sim_mode,
                                                  coverage=True))
        assert "$isunknown" in outcome.sim_error
        assert not outcome.failed
        assert outcome.coverage["assertions"]["follows_assertion"][
            "activations"] == 0

    TWO_FAILING = """
module m (input clk, input rst_n, input a, output reg b);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) b <= 1'b0;
    else b <= !a;
  end
  property mirrors;
    @(posedge clk) disable iff (!rst_n) b == $past(a);
  endproperty
  track_assertion: assert property (mirrors) else $error("b must mirror a");
  property low_follows;
    @(posedge clk) disable iff (!rst_n) !a |-> ##1 !b;
  endproperty
  low_assertion: assert property (low_follows) else $error("b must track a");
endmodule
"""

    def test_failures_ordered_by_declaration_then_cycle(self):
        design = compile_source(self.TWO_FAILING).design
        outcome = bounded_check(design, BmcConfig(depth=6, random_trials=8))
        assert outcome.failed
        keys = [(f.label, f.start_cycle) for f in outcome.failures]
        declared = {"track_assertion": 0, "low_assertion": 1}
        assert {label for label, _ in keys} == set(declared)
        assert keys == sorted(keys, key=lambda k: (declared[k[0]], k[1]))
        assert outcome.log_text(max_lines=len(keys)).splitlines() == [
            f.log_line() for f in outcome.failures]


# Combinational logic that fails to settle: ``a`` oscillates while
# ``trap`` holds.  In PREFIX_TRAP, trap needs the input history 1, 1, 0
# at drive time and never holds after an edge (there h1 == x).  In
# TICK_TRAP, trap needs the third post-reset edge, which only a depth-3
# stimulus's trailing tick reaches, with x high.
PREFIX_TRAP = """
module prefix_trap (input clk, input rst_n, input x, output wire a);
  reg h1;
  reg h2;
  wire trap;
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) begin
      h1 <= 1'b0;
      h2 <= 1'b0;
    end else begin
      h1 <= x;
      h2 <= h1;
    end
  end
  assign trap = h2 & h1 & ~x;
  assign a = trap ? ~a : 1'b0;
  property p;
    @(posedge clk) disable iff (!rst_n) 1'b1;
  endproperty
  p_assertion: assert property (p);
endmodule
"""

TICK_TRAP = """
module tick_trap (input clk, input rst_n, input x, output wire a);
  reg [2:0] cnt;
  wire trap;
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) cnt <= 3'd0;
    else cnt <= cnt + 3'd1;
  end
  assign trap = (cnt == 3'd3) & x;
  assign a = trap ? ~a : 1'b0;
  property p;
    @(posedge clk) disable iff (!rst_n) 1'b1;
  endproperty
  p_assertion: assert property (p);
endmodule
"""

TRAP_DEPTH = 3


def _fresh_error(design, sim_mode):
    """(error, stimuli_tried) of a loop over fresh simulators."""
    tried = 0
    for stimulus in enumerate_exhaustive(design, TRAP_DEPTH, 2):
        tried += 1
        try:
            make_simulator(design, sim_mode).run(stimulus)
        except (SimulationError, EvalError) as exc:
            return str(exc), tried
    return None, tried


@pytest.mark.parametrize("sim_mode", SIM_MODES)
@pytest.mark.parametrize("source, first_bad", [(PREFIX_TRAP, 4),
                                               (TICK_TRAP, 5)],
                         ids=["prefix", "trailing_tick"])
class TestErrorSurfacing:
    def _design(self, source, sim_mode):
        design = compile_source(source).design
        if sim_mode == "compiled":
            assert isinstance(make_simulator(design, sim_mode),
                              CompiledSimulator)
        return design

    def test_reference_fails_where_expected(self, source, first_bad,
                                            sim_mode):
        error, tried = _fresh_error(self._design(source, sim_mode), sim_mode)
        assert "failed to settle" in error
        assert tried == first_bad

    def test_bounded_check_matches_fresh_error(self, source, first_bad,
                                             sim_mode):
        design = self._design(source, sim_mode)
        result = bounded_check(design, BmcConfig(depth=TRAP_DEPTH,
                                                 sim_mode=sim_mode))
        assert (result.sim_error, result.stimuli_tried) == \
            _fresh_error(design, sim_mode)

    def test_bounded_check_batch_matches_fresh_error(self, source, first_bad,
                                                   sim_mode):
        design = self._design(source, sim_mode)
        result = bounded_check_batch(design, BmcConfig(depth=TRAP_DEPTH,
                                                       sim_mode=sim_mode))
        assert (result.design_error, result.stimuli_tried) == \
            _fresh_error(design, sim_mode)


def _check_key(result):
    return (result.failed,
            [(f.label, f.start_cycle, f.fail_cycle, f.log_line())
             for f in result.failures],
            result.stimuli_tried, result.sim_error,
            result.trace.snapshots if result.trace is not None else None,
            result.coverage)


def _batch_key(result):
    return (result.failed_labels, result.error_labels, result.stimuli_tried,
            result.design_error, result.coverage)


def _both_keys(design, config):
    return (_check_key(bounded_check(design, config)),
            _batch_key(bounded_check_batch(design, config)))


def _keys_with_and_without_trie(design, config):
    """Both entry points' results as run, and as run with no sharing —
    the oracle of the walker and of the replayed-window skip: an
    exhaustive set runs as the plain stimuli of ``enumerate_exhaustive``,
    a fresh run per stimulus, and every window of every stimulus is
    evaluated."""
    candidates = bmc._candidate_stimuli

    def without_walker(design, config):
        stimuli, walker = candidates(design, config)
        if walker is not None:
            stimuli = enumerate_exhaustive(design, config.depth,
                                           config.reset_cycles)
        return stimuli, None
    shared = _both_keys(design, config)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bmc, "_candidate_stimuli", without_walker)
        full = _both_keys(design, config)
    return shared, full


@pytest.fixture(scope="module")
def corpus_checks():
    """(design, depth) for every family's golden design and every
    compiling ``inject_many`` mutant, carrying the family's SVA hints.

    Designs with at most 3 free input bits get an exhaustive check (a
    1-bit design 32 stimuli deep 5, a 2-bit one 64 deep 3); wider ones
    a short portfolio.
    """
    checks = []
    for family in sorted(TEMPLATE_FAMILIES):
        seed = CorpusGenerator(seed=77).generate_one(family=family)
        blocks = [block for hint in seed.meta.sva_hints
                  for block in (hint.property_source(),
                                hint.assertion_source())]
        golden = compile_with_sva(seed.source, blocks)
        assert golden.ok, (family, golden.failure_summary())
        bits = sum(s.width for s in golden.design.free_inputs())
        depth = min(5, 6 // bits) if 0 < bits <= 3 else 3
        checks.append((golden.design, depth))
        records = BugInjector(random.Random(5)).inject_many(seed.source, 8,
                                                             seed.name)
        for record in records:
            buggy = compile_with_sva(record.buggy_source, blocks)
            if buggy.ok:
                checks.append((buggy.design, depth))
    return checks


# Hand-written edge cases of the skip, one free input bit each.
#   late_error: the unsupported $isunknown hides behind a ``disable iff``
#     on the free input until cycle 8, so only the 65th stimulus (after
#     an 8-snapshot replayed prefix) raises.
#   late_failure: the window of start cycle 9 is the first one that can
#     fail, on the 129th stimulus, right after a 9-snapshot replayed
#     prefix: skipping it too (an off-by-one cutoff) hides the failure.
#   windows: lookahead-3 ranges and $past(x, 2); the window of start
#     cycle 4 spans 4..7 and first fails on the 33rd stimulus, whose
#     first 7 snapshots are replayed (the cutoff must count lookahead).
#   shared_label: two assertions under one label, one failing late.
LATE_ERROR = """
module late_error (input clk, input rst_n, input a, output reg b,
                   output reg [3:0] cnt);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) begin
      b <= 1'b0;
      cnt <= 4'd0;
    end else begin
      b <= a;
      cnt <= cnt + 4'd1;
    end
  end
  property follows;
    @(posedge clk) disable iff (!rst_n) a |-> ##1 b;
  endproperty
  follows_assertion: assert property (follows);
  property guarded;
    @(posedge clk) disable iff (!rst_n || !(a && cnt == 4'd6)) $isunknown(b);
  endproperty
  guarded_assertion: assert property (guarded);
endmodule
"""

LATE_FAILURE = """
module late_failure (input clk, input rst_n, input a, output reg [3:0] cnt);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) cnt <= 4'd0;
    else cnt <= cnt + 4'd1;
  end
  property late;
    @(posedge clk) disable iff (!rst_n) !(a && cnt == 4'd7);
  endproperty
  late_assertion: assert property (late);
endmodule
"""

WINDOWS = """
module windows (input clk, input rst_n, input a, output reg b, output reg c,
                output reg [3:0] cnt);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) begin
      b <= 1'b0;
      c <= 1'b0;
      cnt <= 4'd0;
    end else begin
      b <= a;
      c <= b;
      cnt <= cnt + 4'd1;
    end
  end
  property ahead;
    @(posedge clk) disable iff (!rst_n) cnt == 4'd2 |-> ##3 !a;
  endproperty
  ahead_assertion: assert property (ahead);
  property ranged;
    @(posedge clk) disable iff (!rst_n) a |-> ##[1:3] c;
  endproperty
  ranged_assertion: assert property (ranged);
  property pulse;
    @(posedge clk) disable iff (!rst_n) a ##1 !a |-> ##[1:3] (b && c);
  endproperty
  pulse_assertion: assert property (pulse);
  property mirrors;
    @(posedge clk) disable iff (!rst_n) c == $past(a, 2);
  endproperty
  mirrors_assertion: assert property (mirrors);
  property past_high;
    @(posedge clk) disable iff (!rst_n) $past(a, 2) |-> b;
  endproperty
  past_assertion: assert property (past_high);
endmodule
"""

SHARED_LABEL = """
module shared_label (input clk, input rst_n, input a, output reg b,
                     output reg [3:0] cnt);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) begin
      b <= 1'b0;
      cnt <= 4'd0;
    end else begin
      b <= a;
      cnt <= cnt + 4'd1;
    end
  end
  property follows;
    @(posedge clk) disable iff (!rst_n) a |-> ##1 b;
  endproperty
  property late;
    @(posedge clk) disable iff (!rst_n) !(a && cnt == 4'd5);
  endproperty
  twin_assertion: assert property (follows);
  twin_assertion: assert property (late);
endmodule
"""


@pytest.mark.parametrize("coverage", [False, True], ids=["cov_off", "cov_on"])
@pytest.mark.parametrize("sim_mode", SIM_MODES)
class TestReplayedWindowSkip:
    """A trace replayed by the walker skips the windows an earlier
    stimulus settled; results must equal fresh runs scanning every
    window."""

    def test_corpus_checks_match_full_scan(self, corpus_checks, sim_mode,
                                           coverage):
        exhaustive = failing = 0
        for design, depth in corpus_checks:
            config = BmcConfig(depth=depth, exhaustive_bits=6, random_trials=2,
                               sim_mode=sim_mode, coverage=coverage)
            shared, full = _keys_with_and_without_trie(design, config)
            assert shared == full, design.name
            if bmc._candidate_stimuli(design, config)[1] is not None:
                exhaustive += 1
                failing += shared[0][0]
        assert exhaustive >= 150
        assert failing >= 50

    @pytest.mark.parametrize("source", [LATE_ERROR, LATE_FAILURE, WINDOWS,
                                        SHARED_LABEL],
                             ids=["late_error", "late_failure", "windows",
                                  "shared_label"])
    def test_edge_cases_match_full_scan(self, source, sim_mode, coverage):
        design = compile_source(source).design
        config = BmcConfig(depth=8, exhaustive_bits=8, sim_mode=sim_mode,
                           coverage=coverage)
        assert bmc._candidate_stimuli(design, config)[1] is not None
        shared, full = _keys_with_and_without_trie(design, config)
        assert shared == full

    def test_late_error_surfaces(self, sim_mode, coverage):
        design = compile_source(LATE_ERROR).design
        config = BmcConfig(depth=8, exhaustive_bits=8, sim_mode=sim_mode,
                           coverage=coverage)
        check = bounded_check(design, config)
        assert "$isunknown" in check.sim_error
        assert check.stimuli_tried == 65
        batch = bounded_check_batch(design, config)
        assert set(batch.error_labels) == {"guarded_assertion"}
        assert batch.stimuli_tried == 256

    def test_failure_right_after_replayed_prefix(self, sim_mode, coverage):
        design = compile_source(LATE_FAILURE).design
        config = BmcConfig(depth=10, exhaustive_bits=10, sim_mode=sim_mode,
                           coverage=coverage)
        check = bounded_check(design, config)
        assert check.stimuli_tried == 129
        assert [(f.start_cycle, f.fail_cycle) for f in check.failures] == \
            [(9, 9)]
        assert check.trace.shared == 9
        batch = bounded_check_batch(design, config)
        assert (batch.failed_labels, batch.stimuli_tried) == \
            ({"late_assertion"}, 129)


class TestBmcConfigValidation:
    def test_depth_at_least_one(self):
        BmcConfig(depth=1)
        for depth in (0, -2):
            with pytest.raises(ValueError, match="depth"):
                BmcConfig(depth=depth)

    def test_random_trials_non_negative(self):
        BmcConfig(random_trials=0)
        with pytest.raises(ValueError, match="random_trials"):
            BmcConfig(random_trials=-1)

    def test_exhaustive_bits_non_negative(self):
        BmcConfig(exhaustive_bits=0)
        with pytest.raises(ValueError, match="exhaustive_bits"):
            BmcConfig(exhaustive_bits=-1)

    def test_reset_cycles_non_negative(self):
        BmcConfig(reset_cycles=0)
        with pytest.raises(ValueError, match="reset_cycles"):
            BmcConfig(reset_cycles=-1)


class TestInsertion:
    def test_insert_and_compile(self, corpus_samples):
        seed = corpus_samples[0]
        hint = seed.meta.sva_hints[0]
        combined = write_module(compile_with_sva(
            seed.source,
            [hint.property_source(), hint.assertion_source()]).module)
        assert "endproperty" in combined
        assert compile_source(combined).ok

    def test_compile_with_sva_reports_instead_of_raising(self, corpus_samples):
        seed = corpus_samples[0]
        result = compile_with_sva(seed.source, ["property broken\nendproperty"])
        assert not result.ok

    def test_rtl_lines_unchanged_by_insertion(self, corpus_samples):
        seed = corpus_samples[0]
        hint = seed.meta.sva_hints[0]
        combined = write_module(compile_with_sva(
            seed.source,
            [hint.property_source(), hint.assertion_source()]).module)
        original_lines = seed.source.splitlines()
        combined_lines = combined.splitlines()
        # Every RTL line keeps its position (SVA is appended before endmodule).
        for i, line in enumerate(original_lines[:-1]):
            assert combined_lines[i] == line
