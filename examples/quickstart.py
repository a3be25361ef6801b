#!/usr/bin/env python
"""Quickstart: solve the paper's Fig. 1 assertion failure.

The scenario is exactly the paper's running example: an accumulator whose
valid_out logic has an inverted condition, protected by the SVA

    end_cnt |-> ##1 valid_out == 1

We (1) detect the failure with the bounded model checker, (2) train a small
AssertSolver from scratch, and (3) ask it for the buggy line and fix.

Run:  python examples/quickstart.py
"""

from repro.core.api import AssertSolverPipeline, PipelineConfig
from repro.model.assertsolver import Problem
from repro.oracles.spec import write_spec
from repro.sva.bmc import BmcConfig, bounded_check
from repro.verilog.compile import compile_source
from repro.verilog.writer import write_module

BUGGY_ACCU = """
module accu (
  input clk,
  input rst_n,
  input [7:0] data_in,
  input valid_in,
  output reg valid_out,
  output reg [9:0] data_out
);
  wire end_cnt;
  reg [1:0] cnt;
  assign end_cnt = valid_in && (cnt == 2'd3);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) cnt <= 2'd0;
    else if (valid_in) cnt <= end_cnt ? 2'd0 : cnt + 2'd1;
  end
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) valid_out <= 1'b0;
    else if (!end_cnt) valid_out <= 1'b1;   // the paper's Fig. 1 bug
    else valid_out <= 1'b0;
  end
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) data_out <= 10'd0;
    else if (valid_in) data_out <= end_cnt ? {2'b00, data_in} : data_out + data_in;
  end
  property valid_out_check;
    @(posedge clk) disable iff (!rst_n) end_cnt |-> ##1 valid_out == 1;
  endproperty
  valid_out_check_assertion: assert property (valid_out_check) else $error("valid_out not high");
endmodule
"""


def main():
    # --- 0. pick corpus scenario families -------------------------------
    # The corpus samples from 30+ registered template families; selecting
    # a subset (and biasing the mix with weights) focuses the generated
    # training data on specific design scenarios.  Unknown names raise —
    # the same validation guards DatagenConfig/PipelineConfig, e.g.
    # PipelineConfig(template_families=("sync_fifo", ...)).
    from repro.corpus import CorpusGenerator

    scenario_gen = CorpusGenerator(
        seed=7,
        families=["moore_handshake", "sync_fifo", "round_robin_arbiter"],
        weights={"sync_fifo": 2.0})
    print("=== corpus scenario sampling (control-heavy families) ===")
    for design in scenario_gen.generate(4):
        print(f"  {design.name:<28} [{design.meta.family}] "
              f"{design.line_count} lines")
    print()

    # --- 1. compile and reproduce the assertion failure -----------------
    result = compile_source(BUGGY_ACCU)
    assert result.ok, result.failure_summary()
    canonical = write_module(result.module)

    # sim_mode picks the execution tier: "compiled" (default) lowers the
    # design once into a closure program — several times faster on the
    # solve hot path — while "interp" walks the AST per cycle.  Both are
    # byte-identical (traces, verdicts, fingerprints, responses), so the
    # knob exists on BmcConfig/PipelineConfig/ServeConfig purely for
    # execution control and A/B timing (the solve contract of
    # benchmarks/gates.py).
    check = bounded_check(result.design, BmcConfig(depth=10, random_trials=32))
    assert check.failed, "the bug should trigger the assertion"
    logs = check.log_text()
    print("=== simulation / formal logs ===")
    print(logs)
    print()
    print("=== counterexample waveform (excerpt) ===")
    print(check.trace.to_table(["valid_in", "cnt", "end_cnt", "valid_out"],
                               first=2, last=8))
    print()

    # --- 2. train AssertSolver from scratch (small scale) ---------------
    # n_workers fans the datagen stage graph and the evaluation out over
    # a process pool (backend="auto" clamps to the CPUs available); the
    # produced datasets are byte-identical to a serial run.
    print("training AssertSolver (PT -> SFT -> DPO) at small scale ...")
    pipeline = AssertSolverPipeline(PipelineConfig(
        n_designs=70, bugs_per_design=4, seed=11, include_human=False,
        include_baselines=False, n_workers=4))
    solver = pipeline.train()
    print(f"  SFT train accuracy: "
          f"{solver.sft_stats.final_train_accuracy:.1%}; "
          f"challenging cases mined for DPO: {solver.n_challenging}")
    print()

    # --- 3. solve: sample n responses, re-verify each suggestion ----------
    # (the paper samples n = 20 and scores by text; we additionally patch
    # the design and re-run the bounded checker, so a wrong-but-plausible
    # sample is rejected mechanically)
    spec = write_spec(canonical, None, "accu")
    problem = Problem(spec, canonical, logs)
    responses = solver.generate(problem, n=40, temperature=1.5)
    print("=== greedy response (JSON) ===")
    print(solver.solve(problem).to_json())
    print()

    import types

    from repro.eval.runner import semantic_check

    shim = types.SimpleNamespace(
        entry=types.SimpleNamespace(buggy_source_with_sva=canonical))
    verified = None
    seen = set()
    for response in responses:
        key = (response.line, response.fix)
        if key in seen:
            continue
        seen.add(key)
        ok = semantic_check(response, shim,
                            BmcConfig(depth=10, random_trials=32))
        print(f"  line {response.line}: {response.fix}  "
              f"[{'VERIFIED' if ok else 'rejected'} by re-check]")
        if ok and verified is None:
            verified = response
    print()
    assert verified is not None, "no sampled repair re-verified"
    print(f"accepted repair -> line {verified.line}: {verified.fix}")
    expected = "valid_out <= 1'b1"
    verdict = ("matches the paper's human deduction"
               if "end_cnt" in verified.buggy_line or expected in verified.fix
               else "(alternative repair)")
    print(f"paper's human deduction: 'else if (!end_cnt)' -> "
          f"'else if (end_cnt)'  => {verdict}")


if __name__ == "__main__":
    main()
