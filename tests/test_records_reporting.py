"""Dataset records, benchmark assembly, histogram/report rendering."""

import pytest

from repro.datagen.records import (
    SvaEvalCase,
    VerilogPTEntry,
    distribution_table,
)
from repro.eval.benchmark import SvaEvalBenchmark, build_benchmark
from repro.eval.config import EvalConfig
from repro.eval.histogram import render_histogram
from repro.eval.reporting import PAPER_TABLE3, PAPER_TABLE4, render_fig4, render_fig5
from repro.eval.runner import run_eval


class TestRecords:
    def test_pt_entry_text(self):
        entry = VerilogPTEntry("module m (); endmodule", "spec here",
                               analysis="it broke", compiles=False)
        text = entry.text()
        assert "module m" in text
        assert "Failure analysis:" in text and "it broke" in text

    def test_pt_entry_clean_has_no_analysis_section(self):
        entry = VerilogPTEntry("module m (); endmodule", "spec here")
        assert "Failure analysis:" not in entry.text()

    def test_eval_case_origin_validation(self, small_bundle):
        entry = small_bundle.sva_bug_train[0]
        with pytest.raises(ValueError):
            SvaEvalCase("x", entry, origin="martian")

    def test_bucket_labels_three_axes(self, small_bundle):
        entry = small_bundle.sva_bug_train[0]
        labels = entry.bucket_labels()
        assert len(labels) == 3
        assert labels[0] in ("Direct", "Indirect")
        assert labels[1] in ("Var", "Value", "Op")
        assert labels[2] in ("Cond", "Non_cond")

    def test_distribution_table_empty(self):
        assert distribution_table([]) == {}

    def test_verilog_bug_rendering(self, small_bundle):
        if not small_bundle.verilog_bug:
            pytest.skip("no silent bugs at this scale")
        entry = small_bundle.verilog_bug[0]
        assert "contains a bug" in entry.question_text()
        assert "Fix:" in entry.answer_text()


class TestBenchmarkAssembly:
    def test_build_without_human(self, small_bundle):
        benchmark = build_benchmark(small_bundle, include_human=False)
        assert benchmark.human == []
        assert len(benchmark.machine) == len(small_bundle.sva_eval_machine)

    def test_build_with_prebuilt_human(self, small_bundle, human_cases):
        benchmark = build_benchmark(small_bundle, human_cases=human_cases)
        assert len(benchmark.human) == len(human_cases)
        assert len(benchmark) == len(benchmark.machine) + len(benchmark.human)

    def test_subset_lookup(self, small_bundle, human_cases):
        benchmark = SvaEvalBenchmark(small_bundle.sva_eval_machine,
                                     human_cases[:3])
        assert benchmark.subset("machine") == benchmark.machine
        assert benchmark.subset("human") == benchmark.human
        assert len(benchmark.subset("all")) == len(benchmark)
        with pytest.raises(ValueError):
            benchmark.subset("alien")

    def test_summary_mentions_paper_counts(self, small_bundle):
        benchmark = build_benchmark(small_bundle, include_human=False)
        assert "877" in benchmark.summary()
        assert "38" in benchmark.summary()


class TestRenderers:
    def test_histogram_renders_both_series(self, small_bundle,
                                           trained_models):
        _, sft, solver = trained_models
        results = {
            "SFT Model": run_eval(sft, small_bundle.sva_eval_machine,
                                  EvalConfig(n_samples=6)),
            "AssertSolver": run_eval(solver, small_bundle.sva_eval_machine,
                                     EvalConfig(n_samples=6)),
        }
        text = render_histogram(results, n=6)
        assert "extremity mass" in text
        assert "SFT Model" in text and "AssertSolver" in text

    def test_fig4_fig5_render(self, small_bundle, trained_models):
        _, sft, solver = trained_models
        sft_result = run_eval(sft, small_bundle.sva_eval_machine,
                              EvalConfig(n_samples=4))
        solver_result = run_eval(solver, small_bundle.sva_eval_machine,
                                 EvalConfig(n_samples=4))
        fig4 = render_fig4({"SFT Model": sft_result,
                            "AssertSolver": solver_result})
        assert "Fig 4(a)" in fig4 and "Fig 4(b)" in fig4
        fig5 = render_fig5(sft_result, solver_result)
        assert "Fig 5(a)" in fig5 and "Fig 5(b)" in fig5

    def test_paper_reference_tables_complete(self):
        assert set(PAPER_TABLE3) == {"Base Model", "SFT Model",
                                     "AssertSolver"}
        assert "o1-preview" in PAPER_TABLE4
        for values in PAPER_TABLE4.values():
            assert len(values) == 6
