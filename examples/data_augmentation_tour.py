#!/usr/bin/env python
"""Tour of the Section-II data augmentation pipeline.

Shows each stage's inputs and outputs on a handful of designs — what the
paper's Fig. 2 (I) looks like when you can print every intermediate:

- Stage 1: filtering, syntax checking, failure analyses (Verilog-PT);
- Stage 2: SVA synthesis + hallucination filtering, bug injection +
  compile filtering, BMC-validated SVA-Bug / Verilog-Bug split;
- split: the 90/10 module-name split within length bins;
- Stage 3: CoT generation and validation against golden solutions.

Run:  python examples/data_augmentation_tour.py
"""

import random

from repro.corpus.generator import CorpusGenerator
from repro.datagen.split import split_by_module_name
from repro.datagen.stage1 import run_stage1
from repro.datagen.stage2 import run_stage2
from repro.datagen.stage3 import run_stage3


def main():
    generator = CorpusGenerator(seed=21)
    seeds = generator.generate(20)
    print(f"corpus: {len(seeds)} golden designs "
          f"({min(s.line_count for s in seeds)}-"
          f"{max(s.line_count for s in seeds)} lines)\n")

    # ---- Stage 1 ---------------------------------------------------------
    stage1 = run_stage1(seeds, seed=1, break_rate=0.4)
    print(f"Stage 1: filtered {stage1.filtered_count} junk samples, "
          f"{stage1.failed_compile_count} failed compilation, "
          f"{len(stage1.compiled)} compiled, "
          f"{len(stage1.pt_entries)} Verilog-PT entries")
    failing = next(e for e in stage1.pt_entries if not e.compiles)
    print("\n--- one Verilog-PT failure analysis ---")
    print(failing.analysis)

    # ---- Stage 2 ---------------------------------------------------------
    stage2 = run_stage2(stage1.compiled, seed=2, bugs_per_design=3,
                        hallucination_rate=0.3)
    print(f"\nStage 2: {stage2.accepted_svas} SVAs validated, "
          f"{stage2.rejected_svas} hallucinations rejected; "
          f"{len(stage2.sva_bug_entries)} bugs fired assertions "
          f"(SVA-Bug), {len(stage2.verilog_bug_entries)} stayed silent "
          f"(Verilog-Bug)")
    entry = stage2.sva_bug_entries[0]
    print("\n--- one SVA-Bug case ---")
    print(f"design: {entry.record.design_name}  "
          f"[{entry.relation.value}/{entry.record.kind.value}/"
          f"{entry.record.conditionality.value}]")
    print(f"logs:   {entry.logs.splitlines()[0]}")
    print(f"buggy line {entry.record.line}: {entry.record.buggy_line}")
    print(f"golden fix:             {entry.record.fixed_line}")

    # ---- split ------------------------------------------------------------
    train, test = split_by_module_name(stage2.sva_bug_entries,
                                       random.Random(3))
    print(f"\nsplit: {len(train)} train / {len(test)} eval "
          f"(module-name disjoint, paper's 90/10 recipe)")

    # ---- Stage 3 ----------------------------------------------------------
    stage3 = run_stage3(train, seed=4)
    print(f"\nStage 3: {stage3.validated}/{stage3.generated} CoTs validated "
          f"({stage3.validity_rate:.1%}; paper: 74.55%)")
    with_cot = next(e for e in stage3.entries if e.cot)
    print("\n--- one validated chain-of-thought ---")
    print(with_cot.cot)
    print("\n--- the corresponding question (excerpt) ---")
    question = with_cot.question_text()
    print("\n".join(question.splitlines()[:3]))
    print("...")
    print(question.splitlines()[-1])


if __name__ == "__main__":
    main()
