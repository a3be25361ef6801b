"""SVA-Eval-Human: hand-written designs with hand-crafted bugs.

The paper's 38 human cases come from the RTLLM benchmark with manually
curated bugs.  Offline we hand-write six RTLLM-style designs (pipelined
adder, calendar clock, serial-to-parallel converter, width converter,
triangle signal generator, pulse detector) and hand-craft 6-7 bugs each —
deliberately subtler than the machine mutations: indirect cones, carry
chains, guard-order mistakes, cross-stage swaps.  A small share of bugs is
intentionally *outside* the mutation-inverse repair space, modelling the
long tail of human errors no candidate enumeration covers.

``build_human_cases`` validates every case through the same Stage-2
machinery as machine cases (golden passes BMC, buggy fails) so the
benchmark is exactly as trustworthy as the generated half.
"""

from __future__ import annotations

from typing import List, Optional

from repro.bugs.classify import classify_conditionality, classify_relation
from repro.bugs.injector import BugRecord, single_line_diff
from repro.bugs.taxonomy import BugKind
from repro.datagen.records import SvaBugEntry, SvaEvalCase
from repro.datagen.stage2 import _failing_assertion_signals
from repro.oracles.spec import write_spec
from repro.sva.bmc import BmcConfig, bounded_check
from repro.sva.insert import compile_with_sva
from repro.verilog.compile import compile_source
from repro.verilog.parser import parse_module
from repro.verilog.writer import write_module


class HumanBug:
    """One hand-crafted bug: replace the unique line containing ``find``."""

    __slots__ = ("find", "replace", "kind", "note")

    def __init__(self, find: str, replace: str, kind: BugKind, note: str):
        self.find = find
        self.replace = replace
        self.kind = kind
        self.note = note


class HumanDesign:
    __slots__ = ("name", "source", "sva_blocks", "summary", "bugs")

    def __init__(self, name: str, source: str, sva_blocks: List[str],
                 summary: str, bugs: List[HumanBug]):
        self.name = name
        self.source = source
        self.sva_blocks = sva_blocks
        self.summary = summary
        self.bugs = bugs


class HumanCaseError(Exception):
    """A hand-crafted case failed validation (design or bug is wrong)."""


def _designs() -> List[HumanDesign]:
    designs: List[HumanDesign] = []

    # ------------------------------------------------------------------ 1
    adder = HumanDesign(
        name="adder_pipe8",
        summary="A two-stage pipelined 8-bit adder: stage 1 registers the "
                "operands, stage 2 registers the sum with carry-out.",
        source="""
module adder_pipe8 (
  input clk,
  input rst_n,
  input [7:0] a,
  input [7:0] b,
  input en,
  output reg [8:0] sum,
  output reg valid
);
  reg [7:0] a_q;
  reg [7:0] b_q;
  reg en_q;
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) begin
      a_q <= 8'd0;
      b_q <= 8'd0;
      en_q <= 1'b0;
    end
    else begin
      a_q <= a;
      b_q <= b;
      en_q <= en;
    end
  end
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) begin
      sum <= 9'd0;
      valid <= 1'b0;
    end
    else begin
      sum <= {1'b0, a_q} + {1'b0, b_q};
      valid <= en_q;
    end
  end
endmodule
""",
        sva_blocks=[
            "property sum_correct;\n  @(posedge clk) disable iff (!rst_n) "
            "en_q |-> ##1 sum == $past({1'b0, a_q} + {1'b0, b_q});\nendproperty",
            'sum_correct_assertion: assert property (sum_correct) else '
            '$error("stage-2 sum must add the stage-1 operands");',
            "property end_to_end;\n  @(posedge clk) disable iff (!rst_n) "
            "en |-> ##2 sum == $past({1'b0, a} + {1'b0, b}, 2);\nendproperty",
            'end_to_end_assertion: assert property (end_to_end) else '
            '$error("the pipeline must add the operands sampled with en");',
            "property valid_latency;\n  @(posedge clk) disable iff (!rst_n) "
            "en |-> ##2 valid;\nendproperty",
            'valid_latency_assertion: assert property (valid_latency) else '
            '$error("valid must emerge two cycles after en");',
        ],
        bugs=[
            HumanBug("a_q <= a;", "a_q <= b;", BugKind.VAR,
                     "cross-operand swap in stage 1"),
            HumanBug("sum <= {1'b0, a_q} + {1'b0, b_q};",
                     "sum <= {1'b0, a_q} - {1'b0, b_q};", BugKind.OP,
                     "subtract instead of add in stage 2"),
            HumanBug("valid <= en_q;", "valid <= en;", BugKind.VAR,
                     "valid skips the pipeline stage"),
            HumanBug("en_q <= en;", "en_q <= 1'b0;", BugKind.VALUE,
                     "enable chain broken"),
            HumanBug("sum <= {1'b0, a_q} + {1'b0, b_q};",
                     "sum <= {1'b0, a_q} + {1'b0, a_q};", BugKind.VAR,
                     "operand duplication in the adder"),
            HumanBug("b_q <= b;", "b_q <= b_q;", BugKind.VAR,
                     "stage-1 register feeds back on itself"),
        ])
    designs.append(adder)

    # ------------------------------------------------------------------ 2
    calendar = HumanDesign(
        name="calendar_clock",
        summary="A seconds/minutes cascade: seconds count 0-59, minutes "
                "advance when seconds wrap.",
        source="""
module calendar_clock (
  input clk,
  input rst_n,
  input tick,
  output reg [5:0] secs,
  output reg [5:0] mins
);
  wire sec_wrap;
  assign sec_wrap = tick && (secs == 6'd59);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n)
      secs <= 6'd0;
    else if (tick) begin
      if (secs == 6'd59)
        secs <= 6'd0;
      else
        secs <= secs + 6'd1;
    end
  end
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n)
      mins <= 6'd0;
    else if (sec_wrap) begin
      if (mins == 6'd59)
        mins <= 6'd0;
      else
        mins <= mins + 6'd1;
    end
  end
endmodule
""",
        sva_blocks=[
            "property secs_bound;\n  @(posedge clk) disable iff (!rst_n) "
            "secs <= 6'd59;\nendproperty",
            'secs_bound_assertion: assert property (secs_bound) else '
            '$error("seconds must stay below 60");',
            "property minute_carry;\n  @(posedge clk) disable iff (!rst_n) "
            "tick && secs == 6'd59 && mins < 6'd59 |-> ##1 "
            "mins == $past(mins) + 1;\nendproperty",
            'minute_carry_assertion: assert property (minute_carry) else '
            '$error("a seconds wrap must advance the minutes");',
            "property minute_hold;\n  @(posedge clk) disable iff (!rst_n) "
            "!(tick && secs == 6'd59) |-> ##1 mins == $past(mins);\nendproperty",
            'minute_hold_assertion: assert property (minute_hold) else '
            '$error("minutes may only advance on a seconds wrap");',
        ],
        bugs=[
            HumanBug("assign sec_wrap = tick && secs == 6'd59;",
                     "assign sec_wrap = tick && secs == 6'd58;",
                     BugKind.VALUE, "wrap detected one second early"),
            HumanBug("secs <= secs + 6'd1;", "secs <= secs + 6'd2;",
                     BugKind.VALUE, "seconds advance by two"),
            HumanBug("if (secs == 6'd59)", "if (secs == 6'd60)",
                     BugKind.VALUE, "seconds wrap threshold off by one"),
            HumanBug("else if (sec_wrap)", "else if (tick)",
                     BugKind.VAR, "minutes advance on every tick"),
            HumanBug("mins <= mins + 6'd1;", "mins <= mins + 6'd1 + 6'd1;",
                     BugKind.VALUE, "minutes double-step (outside the "
                                    "single-edit repair space)"),
            HumanBug("if (mins == 6'd59)", "if (mins != 6'd59)",
                     BugKind.OP, "minute wrap condition inverted"),
        ])
    designs.append(calendar)

    # ------------------------------------------------------------------ 3
    s2p = HumanDesign(
        name="serial2parallel",
        summary="Serial-to-parallel converter: collects 8 serial bits MSB "
                "first, pulses done when a byte completes.",
        source="""
module serial2parallel (
  input clk,
  input rst_n,
  input din,
  input din_valid,
  output reg [7:0] dout,
  output reg done
);
  reg [2:0] bit_cnt;
  wire byte_end;
  assign byte_end = din_valid && (bit_cnt == 3'd7);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n)
      bit_cnt <= 3'd0;
    else if (din_valid)
      bit_cnt <= bit_cnt + 3'd1;
  end
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n)
      dout <= 8'd0;
    else if (din_valid)
      dout <= {dout[6:0], din};
  end
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n)
      done <= 1'b0;
    else
      done <= byte_end;
  end
endmodule
""",
        sva_blocks=[
            "property done_position;\n  @(posedge clk) disable iff (!rst_n) "
            "din_valid && bit_cnt == 3'd7 |-> ##1 done;\nendproperty",
            'done_position_assertion: assert property (done_position) else '
            '$error("done must pulse after the eighth bit");',
            "property shift_in;\n  @(posedge clk) disable iff (!rst_n) "
            "din_valid |-> ##1 dout[0] == $past(din);\nendproperty",
            'shift_in_assertion: assert property (shift_in) else '
            '$error("the newest serial bit must land in dout[0]");',
            "property quiet_done;\n  @(posedge clk) disable iff (!rst_n) "
            "!(din_valid && bit_cnt == 3'd7) |-> ##1 !done;\nendproperty",
            'quiet_done_assertion: assert property (quiet_done) else '
            '$error("done must stay low mid-byte");',
            "property count_steps;\n  @(posedge clk) disable iff (!rst_n) "
            "din_valid |-> ##1 bit_cnt == $past(bit_cnt + 3'd1);\nendproperty",
            'count_steps_assertion: assert property (count_steps) else '
            '$error("each valid bit must advance the bit counter by one");',
        ],
        bugs=[
            HumanBug("assign byte_end = din_valid && bit_cnt == 3'd7;",
                     "assign byte_end = din_valid && bit_cnt == 3'd0;",
                     BugKind.VALUE, "byte boundary at the wrong count"),
            HumanBug("dout <= {dout[6:0], din};",
                     "dout <= {dout[6:0], din_valid};", BugKind.VAR,
                     "shifts the qualifier instead of the data"),
            HumanBug("done <= byte_end;", "done <= !byte_end;", BugKind.OP,
                     "done polarity inverted"),
            HumanBug("bit_cnt <= bit_cnt + 3'd1;",
                     "bit_cnt <= bit_cnt - 3'd1;", BugKind.OP,
                     "bit counter runs backwards"),
            HumanBug("bit_cnt <= bit_cnt + 3'd1;",
                     "bit_cnt <= bit_cnt + din;", BugKind.VAR,
                     "counter step depends on the data bit"),
            HumanBug("done <= byte_end;", "done <= din_valid;", BugKind.VAR,
                     "done tracks valid instead of the byte boundary"),
        ])
    designs.append(s2p)

    # ------------------------------------------------------------------ 4
    w8to16 = HumanDesign(
        name="width_8to16",
        summary="Width converter: pairs consecutive valid bytes into one "
                "16-bit word, first byte in the high half.",
        source="""
module width_8to16 (
  input clk,
  input rst_n,
  input valid_in,
  input [7:0] data_in,
  output reg valid_out,
  output reg [15:0] data_out
);
  reg half_full;
  reg [7:0] data_lock;
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n)
      half_full <= 1'b0;
    else if (valid_in)
      half_full <= !half_full;
  end
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n)
      data_lock <= 8'd0;
    else if (valid_in && !half_full)
      data_lock <= data_in;
  end
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) begin
      data_out <= 16'd0;
      valid_out <= 1'b0;
    end
    else if (valid_in && half_full) begin
      data_out <= {data_lock, data_in};
      valid_out <= 1'b1;
    end
    else
      valid_out <= 1'b0;
  end
endmodule
""",
        sva_blocks=[
            "property pair_completes;\n  @(posedge clk) disable iff (!rst_n) "
            "valid_in && half_full |-> ##1 valid_out;\nendproperty",
            'pair_completes_assertion: assert property (pair_completes) else '
            '$error("the second byte of a pair must produce a word");',
            "property word_low_half;\n  @(posedge clk) disable iff (!rst_n) "
            "valid_in && half_full |-> ##1 data_out[7:0] == $past(data_in);\nendproperty",
            'word_low_half_assertion: assert property (word_low_half) else '
            '$error("the second byte must occupy the low half");',
            "property no_lone_word;\n  @(posedge clk) disable iff (!rst_n) "
            "!(valid_in && half_full) |-> ##1 !valid_out;\nendproperty",
            'no_lone_word_assertion: assert property (no_lone_word) else '
            '$error("a word may only complete on the second byte");',
            "property phase_toggles;\n  @(posedge clk) disable iff (!rst_n) "
            "valid_in |-> ##1 half_full == !$past(half_full);\nendproperty",
            'phase_toggles_assertion: assert property (phase_toggles) else '
            '$error("every valid byte must flip the phase");',
            "property lock_captures;\n  @(posedge clk) disable iff (!rst_n) "
            "valid_in && !half_full |-> ##1 data_lock == $past(data_in);\nendproperty",
            'lock_captures_assertion: assert property (lock_captures) else '
            '$error("the first byte of a pair must be locked");',
        ],
        bugs=[
            HumanBug("data_out <= {data_lock, data_in};",
                     "data_out <= {data_in, data_lock};", BugKind.VAR,
                     "byte order swapped"),
            HumanBug("else if (valid_in && !half_full)",
                     "else if (valid_in && half_full)", BugKind.OP,
                     "lock captures on the wrong phase"),
            HumanBug("half_full <= !half_full;", "half_full <= 1'b1;",
                     BugKind.VALUE, "phase toggle stuck high"),
            HumanBug("else if (valid_in && half_full)",
                     "else if (valid_in || half_full)", BugKind.OP,
                     "word completes without a second byte"),
            HumanBug("data_lock <= data_in;", "data_lock <= data_in + 8'd1;",
                     BugKind.VALUE, "locked byte off by one"),
            HumanBug("data_lock <= data_in;", "data_lock <= data_out[7:0];",
                     BugKind.VAR, "lock recycles the previous word (outside "
                                  "the single-edit repair space)"),
        ])
    designs.append(w8to16)

    # ------------------------------------------------------------------ 5
    siggen = HumanDesign(
        name="signal_generator",
        summary="Triangle-wave generator: ramps up to the peak, then down "
                "to zero, direction held in a mode register.",
        source="""
module signal_generator (
  input clk,
  input rst_n,
  output reg [4:0] wave,
  output reg downward
);
  wire at_peak;
  wire at_zero;
  assign at_peak = wave == 5'd20;
  assign at_zero = wave == 5'd0;
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n)
      downward <= 1'b0;
    else if (at_peak)
      downward <= 1'b1;
    else if (at_zero)
      downward <= 1'b0;
  end
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n)
      wave <= 5'd0;
    else if (downward) begin
      if (!at_zero)
        wave <= wave - 5'd1;
    end
    else begin
      if (!at_peak)
        wave <= wave + 5'd1;
      else
        wave <= wave - 5'd1;
    end
  end
endmodule
""",
        sva_blocks=[
            "property wave_bounded;\n  @(posedge clk) disable iff (!rst_n) "
            "wave <= 5'd20;\nendproperty",
            'wave_bounded_assertion: assert property (wave_bounded) else '
            '$error("the wave must never exceed the peak");',
            "property turns_at_peak;\n  @(posedge clk) disable iff (!rst_n) "
            "at_peak |-> ##1 downward;\nendproperty",
            'turns_at_peak_assertion: assert property (turns_at_peak) else '
            '$error("reaching the peak must set the downward mode");',
            "property up_step;\n  @(posedge clk) disable iff (!rst_n) "
            "!downward && wave < 5'd20 |-> ##1 wave == $past(wave) + 1;\nendproperty",
            'up_step_assertion: assert property (up_step) else '
            '$error("the upward ramp must climb by one per cycle");',
            "property down_step;\n  @(posedge clk) disable iff (!rst_n) "
            "downward && wave > 5'd0 |-> ##1 wave == $past(wave) - 1;\nendproperty",
            'down_step_assertion: assert property (down_step) else '
            '$error("the downward ramp must descend by one per cycle");',
            "property resumes_up;\n  @(posedge clk) disable iff (!rst_n) "
            "wave == 5'd0 |-> ##1 !downward;\nendproperty",
            'resumes_up_assertion: assert property (resumes_up) else '
            '$error("reaching zero must clear the downward mode");',
        ],
        bugs=[
            HumanBug("assign at_peak = wave == 5'd20;",
                     "assign at_peak = wave == 5'd21;", BugKind.VALUE,
                     "peak detector above the peak"),
            HumanBug("wave <= wave + 5'd1;", "wave <= wave + 5'd2;",
                     BugKind.VALUE, "upward ramp steps by two"),
            HumanBug("else if (at_peak)", "else if (at_zero)", BugKind.VAR,
                     "direction flips at the wrong extreme"),
            HumanBug("downward <= 1'b1;", "downward <= 1'b0;", BugKind.VALUE,
                     "peak fails to set downward mode"),
            HumanBug("if (!at_zero)", "if (!at_peak)", BugKind.VAR,
                     "downward guard checks the wrong extreme"),
            HumanBug("assign at_zero = wave == 5'd0;",
                     "assign at_zero = wave == 5'd2;",
                     BugKind.VALUE, "floor detector two steps early"),
        ])
    designs.append(siggen)

    # ------------------------------------------------------------------ 6
    pulse = HumanDesign(
        name="pulse_detect",
        summary="Detects a clean 0-1-0 pulse on a noisy input: output "
                "pulses for one cycle after the pattern completes.",
        source="""
module pulse_detect (
  input clk,
  input rst_n,
  input sig,
  output reg detected
);
  reg [1:0] history;
  wire pattern_now;
  assign pattern_now = (history == 2'b01) && !sig;
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n)
      history <= 2'b00;
    else
      history <= {history[0], sig};
  end
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n)
      detected <= 1'b0;
    else
      detected <= pattern_now;
  end
endmodule
""",
        sva_blocks=[
            "property detect_fires;\n  @(posedge clk) disable iff (!rst_n) "
            "$past(sig, 2) == 0 && $past(sig) == 1 && !sig |-> ##1 detected;\nendproperty",
            'detect_fires_assertion: assert property (detect_fires) else '
            '$error("a completed 0-1-0 pulse must be flagged");',
            "property detect_quiet;\n  @(posedge clk) disable iff (!rst_n) "
            "!($past(sig, 2) == 0 && $past(sig) == 1 && !sig) |-> ##1 !detected;\nendproperty",
            'detect_quiet_assertion: assert property (detect_quiet) else '
            '$error("no detection without a completed pulse");',
        ],
        bugs=[
            HumanBug("assign pattern_now = history == 2'b01 && !sig;",
                     "assign pattern_now = history == 2'b10 && !sig;",
                     BugKind.VALUE, "pattern mask mistakes bit order"),
            HumanBug("history <= {history[0], sig};",
                     "history <= {history[1], sig};", BugKind.VALUE,
                     "history shifts the wrong bit"),
            HumanBug("detected <= pattern_now;", "detected <= sig;",
                     BugKind.VAR, "detector passes the raw input through"),
            HumanBug("assign pattern_now = history == 2'b01 && !sig;",
                     "assign pattern_now = history == 2'b01 && sig;",
                     BugKind.OP, "pulse end polarity dropped"),
            HumanBug("detected <= pattern_now;", "detected <= !pattern_now;",
                     BugKind.OP, "detector output inverted"),
            HumanBug("history <= {history[0], sig};",
                     "history <= {history[0], detected};", BugKind.VAR,
                     "history samples the output instead of the input"),
            HumanBug("assign pattern_now = history == 2'b01 && !sig;",
                     "assign pattern_now = history == 2'b00 && !sig;",
                     BugKind.VALUE, "pattern mask expects a silent line"),
            HumanBug("detected <= pattern_now;", "detected <= 1'b0;",
                     BugKind.VALUE, "detector output stuck low"),
        ])
    designs.append(pulse)

    return designs


def _make_case(design: HumanDesign, bug: HumanBug, case_index: int,
               bmc: BmcConfig) -> SvaEvalCase:
    golden_result = compile_source(design.source)
    if not golden_result.ok:
        raise HumanCaseError(
            f"{design.name}: golden source does not compile:\n"
            f"{golden_result.failure_summary()}")
    golden_canonical = write_module(golden_result.module)

    if bug.find not in golden_canonical:
        raise HumanCaseError(
            f"{design.name}: bug anchor {bug.find!r} not found in the "
            f"canonical source")
    buggy_raw = golden_canonical.replace(bug.find, bug.replace, 1)
    buggy_result = compile_source(buggy_raw)
    if not buggy_result.ok:
        raise HumanCaseError(
            f"{design.name}: bug {bug.note!r} breaks compilation:\n"
            f"{buggy_result.failure_summary()}")
    buggy_canonical = write_module(buggy_result.module)

    line = single_line_diff(golden_canonical, buggy_canonical)
    if line is None:
        raise HumanCaseError(
            f"{design.name}: bug {bug.note!r} does not change exactly one "
            f"canonical line")

    golden_with_sva = compile_with_sva(golden_canonical, design.sva_blocks)
    if not golden_with_sva.ok:
        raise HumanCaseError(
            f"{design.name}: SVAs do not compile:\n"
            f"{golden_with_sva.failure_summary()}")
    golden_check = bounded_check(golden_with_sva.design, bmc)
    if not golden_check.passed_bound:
        raise HumanCaseError(
            f"{design.name}: SVAs fail on the golden design:\n"
            f"{golden_check.log_text()}")

    buggy_with_sva = compile_with_sva(buggy_canonical, design.sva_blocks)
    if not buggy_with_sva.ok:
        raise HumanCaseError(
            f"{design.name}: buggy design with SVAs does not compile")
    buggy_check = bounded_check(buggy_with_sva.design, bmc)
    if not buggy_check.failed:
        raise HumanCaseError(
            f"{design.name}: bug {bug.note!r} fires no assertion within "
            f"the bound")

    buggy_module = parse_module(buggy_canonical)
    buggy_lines = write_module(buggy_module).splitlines()
    golden_lines = golden_canonical.splitlines()
    record = BugRecord(
        design_name=design.name,
        buggy_source=write_module(buggy_module),
        golden_source=golden_canonical,
        line=line,
        buggy_line=buggy_lines[line - 1].strip(),
        fixed_line=golden_lines[line - 1].strip(),
        op_name="human",
        kind=bug.kind,
        conditionality=classify_conditionality(buggy_module, line),
        description=bug.note,
    )
    labels = sorted({f.label for f in buggy_check.failures})
    source_with_sva = write_module(buggy_with_sva.module)
    signals = _failing_assertion_signals(buggy_with_sva.module, labels)
    relation = classify_relation(buggy_module, line, signals)

    spec = write_spec(golden_canonical, None, design.name)
    spec += "\n" + design.summary + "\n"
    entry = SvaBugEntry(
        record=record, spec=spec,
        buggy_source_with_sva=source_with_sva,
        logs=buggy_check.log_text(),
        failing_labels=labels, relation=relation,
        assertion_signals=signals)
    return SvaEvalCase(f"human_{case_index:04d}", entry, origin="human")


def build_human_cases(bmc: Optional[BmcConfig] = None) -> List[SvaEvalCase]:
    """Build and validate every hand-crafted case (paper: 38 cases).

    The default bound is deeper than the machine pipeline's: hand-written
    designs like the calendar clock need ~60 cycles to reach their wrap
    conditions (the directed all-ones stimulus covers them determinately).
    """
    bmc = bmc or BmcConfig(depth=70, random_trials=24)
    cases: List[SvaEvalCase] = []
    index = 0
    for design in _designs():
        for bug in design.bugs:
            cases.append(_make_case(design, bug, index, bmc))
            index += 1
    return cases
