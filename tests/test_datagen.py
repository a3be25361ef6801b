"""Datagen stages: filtering, validation, split, CoT attachment, pipeline."""

import random

import pytest

from repro.datagen.pipeline import DatagenConfig, run_pipeline
from repro.datagen.records import distribution_table
from repro.datagen.split import assert_disjoint, split_by_module_name
from repro.datagen.stage1 import is_filtered_out, run_stage1
from repro.datagen.stage3 import run_stage3


class TestStage1:
    def test_filter_incomplete(self):
        assert is_filtered_out("assign y = a;") == "incomplete"

    def test_filter_no_logic(self):
        assert is_filtered_out(
            "module s ();\nendmodule") == "no_functional_logic"

    def test_golden_designs_pass_filter(self, corpus_samples):
        for seed in corpus_samples:
            assert is_filtered_out(seed.source) is None

    def test_stage1_outputs(self, corpus_samples):
        result = run_stage1(corpus_samples, seed=1234, break_rate=0.5)
        assert result.compiled
        assert result.pt_entries
        assert result.filtered_count > 0          # junk was mixed in
        assert result.failed_compile_count > 0    # broken siblings exist

    def test_duplicates_removed(self, corpus_samples):
        doubled = corpus_samples + corpus_samples[:3]
        result = run_stage1(doubled, seed=1234, break_rate=0.0)
        assert result.duplicate_count >= 3

    def test_failing_entries_have_analysis(self, corpus_samples):
        result = run_stage1(corpus_samples, seed=1234, break_rate=1.0)
        failing = [e for e in result.pt_entries if not e.compiles]
        assert failing
        assert all(e.analysis for e in failing)


class TestStage2AndBundle:
    def test_bundle_structure(self, small_bundle):
        assert small_bundle.verilog_pt
        assert small_bundle.sva_bug_train
        assert small_bundle.stats["stage2_accepted_svas"] > 0

    def test_sva_bug_entries_well_formed(self, small_bundle):
        for entry in small_bundle.sva_bug_train:
            assert "failed assertion" in entry.logs
            assert entry.failing_labels
            assert entry.assertion_signals
            lines = entry.buggy_source_with_sva.splitlines()
            assert lines[entry.record.line - 1].strip() == entry.record.buggy_line

    def test_verilog_bug_entries_fired_nothing(self, small_bundle):
        # Verilog-Bug entries carry no logs by construction.
        for entry in small_bundle.verilog_bug[:10]:
            assert entry.record.buggy_line != entry.record.fixed_line

    def test_question_answer_rendering(self, small_bundle):
        entry = small_bundle.sva_bug_train[0]
        question = entry.question_text()
        assert "Simulation logs:" in question
        assert "specification" in question
        answer = entry.answer_text()
        assert f"Buggy line {entry.record.line}" in answer
        if entry.step_by_step:
            assert "step by step" in question
            assert "Reasoning:" in answer

    def test_hallucination_rejections_counted(self, small_bundle):
        assert small_bundle.stats["stage2_rejected_svas"] >= 0
        total = (small_bundle.stats["stage2_rejected_svas"]
                 + small_bundle.stats["stage2_accepted_svas"])
        assert total > 0


class TestSplit:
    def test_disjoint_module_names(self, small_bundle):
        train_names = {e.record.design_name
                       for e in small_bundle.sva_bug_train}
        test_names = {c.record.design_name
                      for c in small_bundle.sva_eval_machine}
        assert not train_names & test_names

    def test_split_ratio_close_to_target(self, small_bundle):
        entries = (small_bundle.sva_bug_train
                   + [c.entry for c in small_bundle.sva_eval_machine])
        train, test = split_by_module_name(entries, random.Random(0),
                                           train_fraction=0.9)
        assert_disjoint(train, test)
        assert len(train) > len(test)

    def test_assert_disjoint_raises_on_overlap(self, small_bundle):
        entries = small_bundle.sva_bug_train
        if len(entries) >= 2:
            with pytest.raises(AssertionError):
                assert_disjoint(entries, entries)


class TestStage3:
    def test_cot_attached_to_valid_fraction(self, small_bundle):
        with_cot = [e for e in small_bundle.sva_bug_train if e.cot]
        without = [e for e in small_bundle.sva_bug_train if not e.cot]
        assert with_cot, "no CoTs were validated"
        assert without or len(with_cot) == len(small_bundle.sva_bug_train)

    def test_stage3_rate_reported(self, small_bundle):
        rate = small_bundle.stats["cot_validity_rate"]
        assert 0.0 < rate <= 1.0

    def test_rerun_is_idempotent_on_fields(self, small_bundle):
        entries = list(small_bundle.sva_bug_train)
        result = run_stage3(entries, seed=99)
        assert len(result.entries) == len(entries)


class TestDistributionTable:
    def test_counts_cover_all_axes(self, small_bundle):
        table = distribution_table(small_bundle.sva_bug_train)
        n = len(small_bundle.sva_bug_train)
        # Each entry lands in exactly one bucket per axis.
        relation_total = table.get("Direct", 0) + table.get("Indirect", 0)
        cond_total = table.get("Cond", 0) + table.get("Non_cond", 0)
        kind_total = (table.get("Var", 0) + table.get("Value", 0)
                      + table.get("Op", 0))
        assert relation_total == n
        assert cond_total == n
        assert kind_total == n


class TestPipelineScaling:
    def test_tiny_pipeline_runs(self):
        bundle = run_pipeline(DatagenConfig(n_designs=6, bugs_per_design=2,
                                            seed=31, bmc_depth=6,
                                            bmc_random_trials=8))
        assert bundle.verilog_pt
        assert bundle.summary()

    def test_deterministic_given_seed(self):
        config = DatagenConfig(n_designs=5, bugs_per_design=2, seed=17,
                               bmc_depth=6, bmc_random_trials=8)
        a = run_pipeline(config)
        b = run_pipeline(config)
        assert len(a.sva_bug_train) == len(b.sva_bug_train)
        if a.sva_bug_train:
            assert a.sva_bug_train[0].record.buggy_line == \
                b.sva_bug_train[0].record.buggy_line
