"""Model stack: tokenizer, LM, candidates, features, SFT, DPO, inference.

:class:`TestFeatureMatrixOracle` checks :meth:`CaseContext.matrix`
against the per-element feature vector it replaced, kept here as the
reference (:func:`_reference_vector`).
"""

import pickle
import random

import numpy as np
import pytest

from repro.eval import runner
from repro.eval.benchmark import build_benchmark
from repro.model import ngram_lm
from repro.model.assertsolver import AssertSolver, Problem, SolverResponse
from repro.model.candidates import enumerate_repairs
from repro.model.dpo import calibrate_margin, mine_challenging, sample_indices, train_dpo
from repro.model.features import (
    DIM,
    FEATURE_NAMES,
    OP_NAMES,
    CaseContext,
    _is_trivial_const_fix,
    parse_failing_labels,
)
from repro.model.ngram_lm import NgramLM
from repro.model.sft import TrainExample, softmax, train_sft
from repro.model.tokenizer import tokenize_line, tokenize_text


class TestTokenizer:
    def test_identifiers_kept_whole(self):
        assert "valid_out" in tokenize_line("valid_out <= 1'b1;")

    def test_small_numbers_distinct(self):
        a = tokenize_line("x <= 4'd3;")
        b = tokenize_line("x <= 4'd4;")
        assert a != b

    def test_large_numbers_bucketed(self):
        a = tokenize_line("x <= 8'd200;")
        b = tokenize_line("x <= 8'd201;")
        assert a == b

    def test_operators_single_tokens(self):
        tokens = tokenize_line("a <= b + c;")
        assert "<=" in tokens and "+" in tokens

    def test_blank_lines_skipped(self):
        assert len(tokenize_text("a;\n\n\nb;")) == 2


class TestNgramLm:
    def test_untrained_constant_score(self):
        lm = NgramLM()
        assert lm.line_surprisal("anything at all") == 10.0

    def test_training_lowers_seen_line_surprisal(self, small_bundle):
        lm = NgramLM()
        lm.train_texts(e.text() for e in small_bundle.verilog_pt)
        seen = "count <= count + 4'd1;"
        assert lm.line_surprisal(seen) < lm.line_surprisal(
            "weird_name_xyz <= other_weird + strange;")

    def test_mutated_line_scores_worse(self, small_bundle):
        """The PT mechanism: a mutated line is off-distribution."""
        lm = NgramLM()
        lm.train_texts(e.text() for e in small_bundle.verilog_pt)
        wins = 0
        total = 0
        for entry in small_bundle.sva_bug_train[:20]:
            good = lm.line_surprisal(entry.record.fixed_line)
            bad = lm.line_surprisal(entry.record.buggy_line)
            total += 1
            wins += bad >= good
        assert wins / total > 0.6

    def test_perplexity_finite_on_corpus(self, small_bundle, corpus_samples):
        lm = NgramLM()
        lm.train_texts(e.text() for e in small_bundle.verilog_pt)
        perplexity = lm.perplexity(corpus_samples[0].source)
        assert 1.0 < perplexity < 10000.0


class TestCandidates:
    def test_golden_in_space_for_train_entries(self, small_bundle):
        for entry in small_bundle.sva_bug_train:
            space = enumerate_repairs(entry.buggy_source_with_sva)
            assert space.golden_index(entry.record.line,
                                      entry.record.fixed_line) is not None

    def test_candidates_deduplicated(self, small_bundle):
        entry = small_bundle.sva_bug_train[0]
        space = enumerate_repairs(entry.buggy_source_with_sva)
        keys = [c.key for c in space.candidates]
        assert len(keys) == len(set(keys))

    def test_candidates_are_real_edits(self, small_bundle):
        entry = small_bundle.sva_bug_train[0]
        space = enumerate_repairs(entry.buggy_source_with_sva)
        for candidate in space.candidates:
            assert candidate.new_line != candidate.old_line

    def test_baseline_matches_input_source(self, small_bundle):
        entry = small_bundle.sva_bug_train[0]
        space = enumerate_repairs(entry.buggy_source_with_sva)
        assert space.source == entry.buggy_source_with_sva

    def test_find_lookup(self, small_bundle):
        entry = small_bundle.sva_bug_train[0]
        space = enumerate_repairs(entry.buggy_source_with_sva)
        candidate = space.candidates[0]
        assert space.find(candidate.line, candidate.new_line) is candidate


class TestFeatures:
    def test_parse_failing_labels(self):
        logs = ("failed assertion m.check_a at cycle 4: msg\n"
                "failed assertion m.check_b at cycle 9")
        assert parse_failing_labels(logs) == ["check_a", "check_b"]

    def test_feature_dim_consistent(self, small_bundle, trained_models):
        _, sft, _ = trained_models
        entry = small_bundle.sva_bug_train[0]
        space = enumerate_repairs(entry.buggy_source_with_sva)
        context = CaseContext(entry.buggy_source_with_sva, entry.spec,
                              entry.logs, sft.lm)
        matrix = context.matrix(space.candidates)
        assert matrix.shape == (len(space), DIM)
        assert len(FEATURE_NAMES) == DIM

    def test_cone_features_fire_for_golden(self, small_bundle, trained_models):
        _, sft, _ = trained_models
        hits = 0
        for entry in small_bundle.sva_bug_train[:10]:
            space = enumerate_repairs(entry.buggy_source_with_sva)
            gold = space.golden_index(entry.record.line,
                                      entry.record.fixed_line)
            context = CaseContext(entry.buggy_source_with_sva, entry.spec,
                                  entry.logs, sft.lm)
            vector = context.matrix([space.candidates[gold]])[0]
            in_cone = vector[FEATURE_NAMES.index("in_cone")]
            hits += in_cone > 0
        assert hits >= 7  # the buggy line is nearly always in the cone


class TestSftTraining:
    def test_softmax_sums_to_one(self):
        logits = np.array([1.0, 2.0, 3.0])
        assert softmax(logits).sum() == pytest.approx(1.0)

    def test_training_reduces_loss(self, trained_models):
        _, sft, _ = trained_models
        losses = sft.sft_stats.epoch_losses
        assert losses[-1] < losses[0]

    def test_training_accuracy_beats_chance(self, trained_models):
        _, sft, _ = trained_models
        assert sft.sft_stats.final_train_accuracy > 0.5

    def test_gold_index_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            TrainExample(np.zeros((3, DIM)), 5)

    def test_empty_training_returns_zero_weights(self):
        weights, stats = train_sft([])
        assert not weights.any()


class TestDpo:
    def test_sampling_distribution_respects_logits(self):
        rng = random.Random(0)
        logits = np.array([0.0, 5.0])
        draws = sample_indices(logits, temperature=0.2, n=200, rng=rng)
        assert draws.count(1) > 190

    def test_high_temperature_more_uniform(self):
        rng = random.Random(0)
        logits = np.array([0.0, 5.0])
        draws = sample_indices(logits, temperature=50.0, n=200, rng=rng)
        assert 40 < draws.count(0) < 160

    def test_mine_challenging_finds_uncertain_cases(self, trained_models):
        _, sft, _ = trained_models
        examples = [e for e in sft._train_examples if e.weight >= 1.0]
        triples = mine_challenging(examples, sft.weights, seed=3)
        for triple in triples:
            assert triple.wrong_indices
            assert triple.gold_index not in triple.wrong_indices

    def test_dpo_improves_pair_margins(self, trained_models):
        _, sft, _ = trained_models
        examples = [e for e in sft._train_examples if e.weight >= 1.0]
        triples = mine_challenging(examples, sft.weights, seed=3)
        if not triples:
            pytest.skip("no challenging cases at this scale")
        updated = train_dpo(triples, sft.weights, lr=0.05, epochs=4)
        before = after = 0.0
        for triple in triples:
            z0 = triple.features @ sft.weights
            z1 = triple.features @ updated
            for wrong in triple.wrong_indices:
                before += z0[triple.gold_index] - z0[wrong]
                after += z1[triple.gold_index] - z1[wrong]
        assert after >= before

    def test_margin_calibration_scales_up(self, trained_models):
        _, sft, _ = trained_models
        examples = [e for e in sft._train_examples if e.weight >= 1.0]
        weights, scale = calibrate_margin(examples, sft.weights)
        assert scale >= 1.0
        assert np.allclose(weights, sft.weights * scale)


class TestAssertSolverModel:
    def test_base_model_near_uniform(self, small_bundle, trained_models):
        base, _, _ = trained_models
        entry = small_bundle.sva_bug_train[0]
        responses = base.generate(Problem.from_entry(entry), n=10,
                                  rng=random.Random(0))
        assert len(responses) == 10

    def test_pipeline_improves_over_base(self, small_bundle, trained_models):
        base, sft, _ = trained_models

        def accuracy(model):
            correct = 0
            for entry in small_bundle.sva_bug_train[:15]:
                response = model.solve(Problem.from_entry(entry))
                if (response.line == entry.record.line
                        and " ".join(response.fix.split())
                        == " ".join(entry.record.fixed_line.split())):
                    correct += 1
            return correct

        assert accuracy(sft) > accuracy(base)

    def test_dpo_sharpens_distribution(self, trained_models):
        _, sft, solver = trained_models
        assert solver.margin_scale >= 1.0
        assert np.linalg.norm(solver.weights) >= np.linalg.norm(sft.weights) * 0.99

    def test_response_json_round_trip(self):
        response = SolverResponse(7, "a <= b;", "a <= c;", "because")
        clone = SolverResponse.from_json(response.to_json())
        assert (clone.line, clone.buggy_line, clone.fix, clone.cot) == \
            (7, "a <= b;", "a <= c;", "because")

    def test_generate_returns_n_responses(self, small_bundle, trained_models):
        _, sft, _ = trained_models
        entry = small_bundle.sva_bug_train[0]
        responses = sft.generate(Problem.from_entry(entry), n=20,
                                 rng=random.Random(1))
        assert len(responses) == 20
        assert all(r.cot for r in responses)

    def test_clone_checkpoint_independent(self, trained_models):
        _, sft, _ = trained_models
        clone = sft.clone_checkpoint("copy")
        clone.weights[0] += 100.0
        assert sft.weights[0] != clone.weights[0]

    def test_dpo_requires_sft(self):
        model = AssertSolver()
        with pytest.raises(RuntimeError):
            model.train_dpo()


# -- reference oracle: one candidate's features, written element by element --


def _reference_vector(context, candidate):
    features = np.zeros(DIM)
    i = 0
    features[i] = 1.0; i += 1

    in_cone = candidate.line in context.cone_lines
    features[i] = 1.0 if in_cone else 0.0; i += 1

    targets = context.line_targets(candidate.line)
    direct = bool(set(targets) & set(context.assert_signals))
    features[i] = 1.0 if direct else 0.0; i += 1

    depth = min((context.depths.get(t, 9) for t in targets), default=9)
    features[i] = 1.0 / (1.0 + depth); i += 1

    old_s = context.surprisal(candidate.old_line)
    new_s = context.surprisal(candidate.new_line)
    features[i] = old_s / (2.0 * context._mean_surprisal); i += 1
    features[i] = (old_s - new_s) / (2.0 * context._mean_surprisal); i += 1

    features[i] = (context._consistency(candidate.new_line)
                   - context._consistency(candidate.old_line)); i += 1

    stripped = candidate.old_line.lstrip()
    is_cond = stripped.startswith(("if ", "if(", "else if", "case ",
                                   "case("))
    features[i] = 1.0 if is_cond else 0.0; i += 1

    features[i] = candidate.line / context.n_lines; i += 1

    features[i] = context._case_integrity_delta(candidate); i += 1

    features[i] = 1.0 if _is_trivial_const_fix(candidate) else 0.0; i += 1

    features[i] = (context._cone_ref_score(candidate.new_line)
                   - context._cone_ref_score(candidate.old_line)); i += 1

    for op in OP_NAMES:
        features[i] = 1.0 if op in candidate.op_names else 0.0
        i += 1
    return features


@pytest.fixture(scope="module")
def feature_entries(small_bundle, human_cases):
    """The small bundle's train entries and its SVA-Eval cases."""
    benchmark = build_benchmark(small_bundle, human_cases=human_cases)
    return (list(small_bundle.sva_bug_train)
            + [case.entry for case in benchmark.cases])


class TestFeatureMatrixOracle:
    @pytest.mark.parametrize("with_lm", [False, True])
    def test_matrix_equals_reference_vectors(self, feature_entries,
                                             trained_models, with_lm):
        _, sft, _ = trained_models
        lm = sft.lm if with_lm else None
        rows = 0
        for entry in feature_entries:
            context = CaseContext(entry.buggy_source_with_sva, entry.spec,
                                  entry.logs, lm)
            space = enumerate_repairs(entry.buggy_source_with_sva,
                                      module=context.module)
            got = context.matrix(space.candidates)
            want = (np.stack([_reference_vector(context, c) for c in space])
                    if len(space) else np.zeros((0, DIM)))
            assert got.dtype == want.dtype == np.float64
            assert np.array_equal(got, want), entry.record.design_name
            rows += len(space)
        assert rows > 1000

    def test_base_checkpoint_builds_no_matrix(self, small_bundle,
                                              trained_models, monkeypatch):
        base, sft, _ = trained_models
        assert base.weights is None
        original = CaseContext.matrix
        calls = []

        def counting(context, candidates):
            calls.append(len(candidates))
            return original(context, candidates)

        monkeypatch.setattr(CaseContext, "matrix", counting)
        for entry in small_bundle.sva_bug_train[:6]:
            problem = Problem.from_entry(entry)
            got = [r.to_json() for r in base.generate(
                problem, n=20, rng=random.Random(3))]
            assert calls == []
            # The path that built the matrix and then scored it zeros.
            context = CaseContext(problem.source, problem.spec, problem.logs,
                                  base.lm)
            space = enumerate_repairs(problem.source, module=context.module)
            original(context, space.candidates)
            indices = sample_indices(np.zeros(len(space)), base.temperature,
                                     20, random.Random(3))
            want = [base._response(space.candidates[i], context).to_json()
                    for i in indices]
            assert got == want
        sft.generate(Problem.from_entry(small_bundle.sva_bug_train[0]), n=2,
                     rng=random.Random(0))
        assert len(calls) == 1


class TestLmTotals:
    def test_pickle_holds_no_totals(self, trained_models, monkeypatch):
        _, _, solver = trained_models
        blob = pickle.dumps(solver, protocol=pickle.HIGHEST_PROTOCOL)
        for name in ngram_lm._DERIVED:
            assert name.encode() not in blob
        digest = runner.model_digest(solver)
        assert digest == runner.model_digest(pickle.loads(blob))
        # Pickled the default way, the state without the totals digests
        # the same: the digest (and every eval/v1 memo key) stays put.
        monkeypatch.delattr(NgramLM, "__getstate__")
        for name in ngram_lm._DERIVED:
            monkeypatch.delitem(solver.lm.__dict__, name)
        assert runner.model_digest(solver) == digest

    def test_round_trip_scores_identically(self, small_bundle,
                                           trained_models):
        _, _, solver = trained_models
        runner._WORKER_MODEL_CACHE.clear()
        try:
            blob, digest = runner._model_payload(solver)
            resolved = runner._resolve_model(blob, digest)
            assert resolved is not solver
            for name in ngram_lm._DERIVED:
                assert getattr(resolved.lm, name) == getattr(solver.lm, name)
            for entry in small_bundle.sva_bug_train[:8]:
                problem = Problem.from_entry(entry)
                _, _, want = solver._score(problem)
                _, _, got = resolved._score(problem)
                assert np.array_equal(got, want)
            assert pickle.dumps(resolved.lm) == pickle.dumps(solver.lm)
        finally:
            runner._WORKER_MODEL_CACHE.clear()

    def test_second_training_call_scores_like_one(self, small_bundle):
        texts = [entry.text() for entry in small_bundle.verilog_pt]
        half = len(texts) // 2
        twice = NgramLM()
        twice.train_texts(texts[:half])
        twice.train_texts(texts[half:])
        once = NgramLM()
        once.train_texts(texts)
        lines = {line.strip() for text in texts
                 for line in text.splitlines() if line.strip()}
        lines.add("weird_name_xyz <= other_weird + strange;")
        for line in sorted(lines):
            assert twice.line_surprisal(line) == once.line_surprisal(line), \
                line
