"""Evaluation layer: pass@k estimator properties, runner, buckets, reports."""

import json

import pytest
from hypothesis import given, strategies as st

from repro.baselines.engine import make_baseline
from repro.baselines.profiles import case_difficulty, get_profile
from repro.eval.buckets import bug_type_buckets, length_buckets
from repro.eval.cases import case_digest, cases_from_json, cases_to_json
from repro.eval.config import EvalConfig
from repro.eval.histogram import extremity_mass, histogram_series
from repro.eval.passk import aggregate_pass_at_k, pass_at_k
from repro.eval.report import EvalReport
from repro.eval.reporting import render_table1, render_table3, render_table4
from repro.eval.runner import (
    CaseOutcome,
    eval_memo_key,
    is_correct,
    model_digest,
    run_eval,
)
from repro.model.assertsolver import SolverResponse
from repro.store import NS_EVAL, MemoryStore


class TestPassAtK:
    def test_all_correct(self):
        assert pass_at_k(20, 20, 1) == 1.0
        assert pass_at_k(20, 20, 5) == 1.0

    def test_none_correct(self):
        assert pass_at_k(20, 0, 1) == 0.0
        assert pass_at_k(20, 0, 5) == 0.0

    def test_pass1_equals_fraction(self):
        assert pass_at_k(20, 5, 1) == pytest.approx(0.25)

    def test_known_value(self):
        # n=4, c=2, k=2: 1 - C(2,2)/C(4,2) = 1 - 1/6
        assert pass_at_k(4, 2, 2) == pytest.approx(1 - 1 / 6)

    def test_k_geq_n(self):
        assert pass_at_k(5, 1, 5) == 1.0
        assert pass_at_k(5, 0, 9) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            pass_at_k(0, 0, 1)
        with pytest.raises(ValueError):
            pass_at_k(5, 6, 1)
        with pytest.raises(ValueError):
            pass_at_k(5, 2, 0)

    @given(st.integers(1, 40), st.integers(0, 40), st.integers(1, 10))
    def test_bounds(self, n, c, k):
        c = min(c, n)
        value = pass_at_k(n, c, k)
        assert 0.0 <= value <= 1.0

    @given(st.integers(2, 40), st.integers(0, 39), st.integers(1, 10))
    def test_monotone_in_c(self, n, c, k):
        c = min(c, n - 1)
        assert pass_at_k(n, c + 1, k) >= pass_at_k(n, c, k)

    @given(st.integers(2, 40), st.integers(0, 40), st.integers(1, 9))
    def test_monotone_in_k(self, n, c, k):
        c = min(c, n)
        assert pass_at_k(n, c, k + 1) >= pass_at_k(n, c, k)

    def test_aggregate_average(self):
        counts = [(20, 20), (20, 0)]
        assert aggregate_pass_at_k(counts, 1) == pytest.approx(0.5)

    def test_aggregate_empty(self):
        assert aggregate_pass_at_k([], 1) == 0.0


class TestCorrectness:
    def test_is_correct_matches_line_and_fix(self, small_bundle):
        case = small_bundle.sva_eval_machine[0]
        record = case.record
        good = SolverResponse(record.line, record.buggy_line,
                              record.fixed_line)
        assert is_correct(good, case)

    def test_whitespace_normalised(self, small_bundle):
        case = small_bundle.sva_eval_machine[0]
        record = case.record
        spaced = SolverResponse(record.line, record.buggy_line,
                                "  " + record.fixed_line.replace(" ", "  "))
        assert is_correct(spaced, case)

    def test_wrong_line_rejected(self, small_bundle):
        case = small_bundle.sva_eval_machine[0]
        record = case.record
        wrong = SolverResponse(record.line + 1, record.buggy_line,
                               record.fixed_line)
        assert not is_correct(wrong, case)

    def test_wrong_fix_rejected(self, small_bundle):
        case = small_bundle.sva_eval_machine[0]
        record = case.record
        wrong = SolverResponse(record.line, record.buggy_line,
                               record.fixed_line + " // nope")
        assert not is_correct(wrong, case)


class TestRunner:
    def test_evaluate_model_counts(self, small_bundle, trained_models):
        _, sft, _ = trained_models
        result = run_eval(sft, small_bundle.sva_eval_machine,
                          EvalConfig(n_samples=8))
        assert len(result.case_outcomes()) == \
            len(small_bundle.sva_eval_machine)
        for _, n, c in result.case_outcomes():
            assert 0 <= c <= n == 8

    def test_histogram_total(self, small_bundle, trained_models):
        _, sft, _ = trained_models
        result = run_eval(sft, small_bundle.sva_eval_machine,
                          EvalConfig(n_samples=8))
        series = histogram_series(result, n=8)
        assert sum(series) == result.n_cases
        assert 0.0 <= extremity_mass(result, n=8) <= 1.0

    def test_origin_split(self, small_bundle, trained_models, human_cases):
        _, sft, _ = trained_models
        cases = small_bundle.sva_eval_machine + human_cases[:4]
        result = run_eval(sft, cases, EvalConfig(n_samples=6))
        assert result.pass_at_origin(1, "machine") >= 0.0
        assert result.pass_at_origin(1, "human") >= 0.0


class SerializationCountingModel:
    """Picklable model that records how often it is serialized.

    The count lives on the class, so only parent-process pickling is
    observed (workers re-import the class with a fresh counter).
    """

    pickle_count = 0
    name = "SerializationCounter"

    def generate_case(self, case, n):
        from repro.model.assertsolver import SolverResponse

        return [SolverResponse(case.record.line, case.record.buggy_line,
                               case.record.fixed_line) for _ in range(n)]

    def __getstate__(self):
        type(self).pickle_count += 1
        return {}

    def __setstate__(self, state):
        pass


class TestModelTransport:
    """run_eval must serialize the model once per run, not per chunk."""

    def test_process_run_pickles_model_once(self, small_bundle):
        from repro.engine import ExecutionEngine

        cases = small_bundle.sva_eval_machine
        assert len(cases) > 1
        model = SerializationCountingModel()
        SerializationCountingModel.pickle_count = 0
        serial = run_eval(model, cases, EvalConfig(n_samples=4, seed=9))
        assert SerializationCountingModel.pickle_count == 0
        with ExecutionEngine(n_workers=2, backend="process") as engine:
            parallel = run_eval(model, cases, EvalConfig(n_samples=4, seed=9),
                                engine=engine)
            # However many chunks fan out, the object graph is walked
            # exactly twice per run: once for transport, once for the
            # after-run fingerprint assertion — never once per chunk.
            assert SerializationCountingModel.pickle_count == 2
        assert serial.case_outcomes() == parallel.case_outcomes()

    def test_thread_run_never_pickles(self, small_bundle):
        from repro.engine import ExecutionEngine

        model = SerializationCountingModel()
        SerializationCountingModel.pickle_count = 0
        with ExecutionEngine(n_workers=2, backend="thread") as engine:
            run_eval(model, small_bundle.sva_eval_machine,
                     EvalConfig(n_samples=2, seed=9), engine=engine)
        assert SerializationCountingModel.pickle_count == 0

    def test_trained_model_parallel_matches_serial(self, small_bundle,
                                                   trained_models):
        from repro.engine import ExecutionEngine

        _, sft, _ = trained_models
        serial = run_eval(sft, small_bundle.sva_eval_machine,
                          EvalConfig(n_samples=4, seed=3))
        with ExecutionEngine(n_workers=2, backend="process") as engine:
            parallel = run_eval(sft, small_bundle.sva_eval_machine,
                                EvalConfig(n_samples=4, seed=3),
                                engine=engine)
        assert serial.case_outcomes() == parallel.case_outcomes()


class TestModelDigest:
    """``model_digest`` keys eval/v1 outcomes by content, so a model
    loaded from a pickle (a pool worker, a file) keys them alike."""

    def test_stable_under_pickle_round_trips(self, trained_models):
        import pickle

        models = list(trained_models) + [make_baseline("GPT-4", seed=3)]
        for model in models:
            digest = model_digest(model)
            once = pickle.loads(pickle.dumps(model))
            twice = pickle.loads(pickle.dumps(once))
            assert model_digest(once) == digest, type(model).__name__
            assert model_digest(twice) == digest, type(model).__name__

    def test_content_changes_move_it(self, trained_models):
        base, sft, solver = trained_models
        assert len({model_digest(base), model_digest(sft),
                    model_digest(solver)}) == 3


def outcomes_of(report, cases):
    """The report's per-case ``(n, c)``, joined back to its cases."""
    return [CaseOutcome(case, n, c)
            for case, (_, n, c) in zip(cases, report.case_outcomes())]


class TestBuckets:
    def test_bug_type_buckets_partition_axes(self, small_bundle,
                                             trained_models):
        _, sft, _ = trained_models
        result = outcomes_of(run_eval(sft, small_bundle.sva_eval_machine,
                                      EvalConfig(n_samples=4)),
                             small_bundle.sva_eval_machine)
        buckets = bug_type_buckets(result)
        n = len(result)
        assert len(buckets["Direct"]) + len(buckets["Indirect"]) == n
        assert len(buckets["Cond"]) + len(buckets["Non_cond"]) == n

    def test_length_buckets_cover_all(self, small_bundle, trained_models):
        _, sft, _ = trained_models
        result = outcomes_of(run_eval(sft, small_bundle.sva_eval_machine,
                                      EvalConfig(n_samples=4)),
                             small_bundle.sva_eval_machine)
        buckets = length_buckets(result)
        assert sum(len(v) for v in buckets.values()) == len(result)

    def test_bucket_pass_at_unknown_axis(self, small_bundle, trained_models):
        _, sft, _ = trained_models
        result = run_eval(sft, small_bundle.sva_eval_machine,
                          EvalConfig(n_samples=4))
        with pytest.raises(ValueError):
            result.bucket_pass_at(1, by="colour")


class TestBaselines:
    def test_profiles_exist_for_paper_models(self):
        for name in ("Claude-3.5", "GPT-4", "o1-preview", "CodeLlama-7b",
                     "Llama-3.1-8b", "Deepseek-coder-6.7b"):
            assert get_profile(name).name == name

    def test_unknown_profile_raises(self):
        with pytest.raises(KeyError):
            get_profile("GPT-17")

    def test_deterministic_per_case(self, small_bundle):
        model = make_baseline("GPT-4", seed=1)
        case = small_bundle.sva_eval_machine[0]
        a = [r.to_json() for r in model.generate_case(case, n=10)]
        b = [r.to_json() for r in model.generate_case(case, n=10)]
        assert a == b

    def test_difficulty_monotone_in_length(self):
        easy = case_difficulty("Value", "Direct", "Non_cond", 0, False)
        hard = case_difficulty("Value", "Direct", "Non_cond", 4, False)
        assert hard > easy

    def test_human_cases_harder(self):
        machine = case_difficulty("Op", "Direct", "Cond", 1, False)
        human = case_difficulty("Op", "Direct", "Cond", 1, True)
        assert human > machine

    def test_ordering_on_benchmark(self, small_bundle, human_cases):
        """The published ordering must hold: o1 ~ Claude > GPT-4 >>
        Llama-3.1 > CodeLlama ~ Deepseek."""
        cases = small_bundle.sva_eval_machine + human_cases
        scores = {}
        for name in ("o1-preview", "Claude-3.5", "GPT-4", "Llama-3.1-8b",
                     "CodeLlama-7b", "Deepseek-coder-6.7b"):
            model = make_baseline(name, seed=0)
            result = run_eval(model, cases, EvalConfig(n_samples=20))
            scores[name] = result.pass_at(1)
        assert scores["o1-preview"] > scores["GPT-4"]
        assert scores["Claude-3.5"] > scores["GPT-4"]
        assert scores["GPT-4"] > scores["Llama-3.1-8b"]
        assert scores["Llama-3.1-8b"] > scores["CodeLlama-7b"]
        assert scores["Llama-3.1-8b"] > scores["Deepseek-coder-6.7b"]

    def test_format_errors_produce_wrong_answers(self, small_bundle):
        model = make_baseline("Deepseek-coder-6.7b", seed=0)
        case = small_bundle.sva_eval_machine[0]
        responses = model.generate_case(case, n=40)
        assert any(r.fix == "<malformed response>" for r in responses)


class TestEvalConfig:
    def test_defaults_match_legacy_positional_knobs(self):
        config = EvalConfig()
        assert (config.n_samples, config.seed) == (20, 123)
        assert config.k_values == (1, 5)
        assert config.semantic_check is False
        assert config.deadline_ms is None

    def test_list_k_values_coerced_to_tuple(self):
        assert EvalConfig(k_values=[1, 5, 10]).k_values == (1, 5, 10)

    @pytest.mark.parametrize("kwargs", [
        {"n_samples": 0},
        {"n_samples": 2.5},
        {"n_samples": True},
        {"seed": "x"},
        {"k_values": ()},
        {"k_values": (0,)},
        {"k_values": (5, 1)},
        {"k_values": (1, 1)},
        {"semantic_check": 1},
        {"deadline_ms": 0},
        {"deadline_ms": -5.0},
    ])
    def test_malformed_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            EvalConfig(**kwargs)

    def test_unknown_knob_rejected(self):
        with pytest.raises(TypeError):
            EvalConfig(samples=4)

    def test_digest_stable_across_instances(self):
        assert EvalConfig(n_samples=6, seed=9).semantic_digest() == \
               EvalConfig(n_samples=6, seed=9).semantic_digest()

    def test_digest_tracks_scoring_knobs(self):
        base = EvalConfig(n_samples=6, seed=9)
        assert base.semantic_digest() != \
               EvalConfig(n_samples=7, seed=9).semantic_digest()
        assert base.semantic_digest() != \
               EvalConfig(n_samples=6, seed=10).semantic_digest()
        assert base.semantic_digest() != \
               EvalConfig(n_samples=6, seed=9,
                          semantic_check=True).semantic_digest()

    def test_digest_ignores_aggregation_and_qos_knobs(self):
        base = EvalConfig(n_samples=6, seed=9)
        assert base.semantic_digest() == \
               EvalConfig(n_samples=6, seed=9,
                          k_values=(1, 2, 3)).semantic_digest()
        assert base.semantic_digest() == \
               EvalConfig(n_samples=6, seed=9,
                          deadline_ms=250.0).semantic_digest()

    def test_canonical_excludes_deadline(self):
        assert EvalConfig(deadline_ms=100.0).canonical() == \
               EvalConfig().canonical()


class TestCaseCodec:
    def test_round_trip_preserves_digests(self, small_bundle):
        cases = small_bundle.sva_eval_machine
        restored = cases_from_json(cases_to_json(cases))
        assert [case_digest(c) for c in restored] == \
               [case_digest(c) for c in cases]

    def test_round_trip_scores_identically(self, small_bundle,
                                           trained_models):
        _, sft, _ = trained_models
        cases = small_bundle.sva_eval_machine
        config = EvalConfig(n_samples=4, seed=5)
        original = run_eval(sft, cases, config=config)
        restored = run_eval(sft, cases_from_json(cases_to_json(cases)),
                            config=config)
        assert restored.to_json() == original.to_json()


class TestEvalMemo:
    def test_cold_then_warm_is_byte_identical(self, small_bundle,
                                              trained_models):
        _, sft, _ = trained_models
        cases = small_bundle.sva_eval_machine
        config = EvalConfig(n_samples=4, seed=5)
        store = MemoryStore()
        cold = run_eval(sft, cases, config=config, store=store)
        assert cold.stats == {"cases": len(cases), "memo_hits": 0,
                              "computed": len(cases)}
        warm = run_eval(sft, cases, config=config, store=store)
        assert warm.stats == {"cases": len(cases),
                              "memo_hits": len(cases), "computed": 0}
        assert warm.to_json() == cold.to_json()

    def test_warm_process_pool_matches_serial_cold(self, small_bundle,
                                                   trained_models):
        from repro.engine import ExecutionEngine

        _, sft, _ = trained_models
        cases = small_bundle.sva_eval_machine
        config = EvalConfig(n_samples=4, seed=5)
        store = MemoryStore()
        cold = run_eval(sft, cases, config=config, store=store)
        with ExecutionEngine(n_workers=2, backend="process") as engine:
            warm = run_eval(sft, cases, config=config, engine=engine,
                            store=store)
        assert warm.stats["computed"] == 0
        assert warm.to_json() == cold.to_json()

    def test_new_cases_recompute_only_the_new(self, small_bundle,
                                              trained_models):
        _, sft, _ = trained_models
        cases = small_bundle.sva_eval_machine
        assert len(cases) >= 2
        config = EvalConfig(n_samples=4, seed=5)
        store = MemoryStore()
        run_eval(sft, cases[:-1], config=config, store=store)
        grown = run_eval(sft, cases, config=config, store=store)
        assert grown.stats == {"cases": len(cases),
                               "memo_hits": len(cases) - 1, "computed": 1}

    @pytest.mark.parametrize("override", [
        {"seed": 6}, {"n_samples": 5},
    ])
    def test_scoring_knob_change_invalidates(self, small_bundle,
                                             trained_models, override):
        _, sft, _ = trained_models
        cases = small_bundle.sva_eval_machine
        store = MemoryStore()
        run_eval(sft, cases, config=EvalConfig(n_samples=4, seed=5),
                 store=store)
        changed = run_eval(sft, cases,
                           config=EvalConfig(**{"n_samples": 4, "seed": 5,
                                                **override}),
                           store=store)
        assert changed.stats["memo_hits"] == 0
        assert changed.stats["computed"] == len(cases)

    def test_model_change_invalidates(self, small_bundle, trained_models):
        base, sft, _ = trained_models
        cases = small_bundle.sva_eval_machine
        config = EvalConfig(n_samples=4, seed=5)
        store = MemoryStore()
        run_eval(sft, cases, config=config, store=store)
        other = run_eval(base, cases, config=config, store=store)
        assert other.stats["memo_hits"] == 0

    def test_k_values_change_hits_every_outcome(self, small_bundle,
                                                trained_models):
        _, sft, _ = trained_models
        cases = small_bundle.sva_eval_machine
        store = MemoryStore()
        run_eval(sft, cases, config=EvalConfig(n_samples=4, seed=5),
                 store=store)
        rescored = run_eval(sft, cases,
                            config=EvalConfig(n_samples=4, seed=5,
                                              k_values=(1, 2, 3)),
                            store=store)
        assert rescored.stats == {"cases": len(cases),
                                  "memo_hits": len(cases), "computed": 0}
        assert list(rescored.k_values) == [1, 2, 3]

    def test_memo_artifacts_live_under_eval_namespace(self, small_bundle,
                                                      trained_models):
        _, sft, _ = trained_models
        cases = small_bundle.sva_eval_machine
        config = EvalConfig(n_samples=4, seed=5)
        store = MemoryStore()
        run_eval(sft, cases, config=config, store=store)
        digest = model_digest(sft)
        key = eval_memo_key(case_digest(cases[0]), digest, config)
        stored = store.get(NS_EVAL, key)
        assert isinstance(stored, tuple) and len(stored) == 2
        assert stored[0] == config.n_samples

    def test_corrupt_memo_entry_recomputed(self, small_bundle,
                                           trained_models):
        _, sft, _ = trained_models
        cases = small_bundle.sva_eval_machine
        config = EvalConfig(n_samples=4, seed=5)
        store = MemoryStore()
        cold = run_eval(sft, cases, config=config, store=store)
        key = eval_memo_key(case_digest(cases[0]), model_digest(sft), config)
        store.put(NS_EVAL, key, {"not": "a tuple"})
        healed = run_eval(sft, cases, config=config, store=store)
        assert healed.stats["computed"] == 1
        assert healed.to_json() == cold.to_json()


class TestEvalReport:
    def test_report_json_round_trip_is_byte_stable(self, small_bundle,
                                                   trained_models):
        _, sft, _ = trained_models
        report = run_eval(sft, small_bundle.sva_eval_machine,
                          config=EvalConfig(n_samples=4, seed=5))
        assert EvalReport.from_json(report.to_json()).to_json() == \
               report.to_json()

    def test_report_json_is_canonical(self, small_bundle, trained_models):
        _, sft, _ = trained_models
        report = run_eval(sft, small_bundle.sva_eval_machine,
                          config=EvalConfig(n_samples=4, seed=5))
        text = report.to_json()
        assert text == json.dumps(json.loads(text), sort_keys=True)

    def test_empty_origin_returns_none_and_is_omitted(self, small_bundle,
                                                      trained_models):
        _, sft, _ = trained_models
        report = run_eval(sft, small_bundle.sva_eval_machine,
                          config=EvalConfig(n_samples=4, seed=5))
        assert report.pass_at_origin(1, "human") is None
        assert "human" not in json.loads(report.to_json())["origins"]

    def test_wrong_schema_rejected(self):
        with pytest.raises(ValueError):
            EvalReport.from_json(json.dumps({"schema": "eval/v0"}))


class TestReporting:
    def test_table1_renders_all_types(self):
        text = render_table1()
        for name in ("Direct", "Indirect", "Var", "Value", "Op", "Cond",
                     "Non_cond"):
            assert name in text

    def test_table3_includes_paper_numbers(self, small_bundle,
                                           trained_models):
        base, sft, solver = trained_models
        results = {
            "Base Model": run_eval(base, small_bundle.sva_eval_machine,
                                   EvalConfig(n_samples=4)),
            "SFT Model": run_eval(sft, small_bundle.sva_eval_machine,
                                  EvalConfig(n_samples=4)),
            "AssertSolver": run_eval(solver, small_bundle.sva_eval_machine,
                                     EvalConfig(n_samples=4)),
        }
        text = render_table3(results)
        assert "paper 88.54" in text
        assert "pass@1" in text and "pass@5" in text

    def test_table4_renders(self, small_bundle, trained_models):
        _, sft, _ = trained_models
        result = run_eval(sft, small_bundle.sva_eval_machine,
                          EvalConfig(n_samples=4))
        text = render_table4({"AssertSolver": result})
        assert "Machine@1" in text and "(paper)" in text
