"""The scenario template families (FSM/memory/arbiter) and the corpus as
a parallel engine stage: per-design seed derivation, family selection and
weighting knobs, and the parallel==serial byte-equality guarantee."""

import random

import pytest

from repro.corpus.generator import (
    DEFAULT_FAMILY_WEIGHTS,
    CorpusGenerator,
    resolve_families,
)
from repro.corpus.registry import (
    SCENARIO_FAMILIES,
    TEMPLATE_FAMILIES,
    make_instance,
)
from repro.datagen.pipeline import DatagenConfig, run_pipeline
from repro.engine import ExecutionEngine
from repro.sva.bmc import BmcConfig, bounded_check_batch
from repro.sva.insert import compile_with_sva
from repro.verilog.compile import compile_source


class TestScenarioFamilies:
    def test_all_registered(self):
        assert set(SCENARIO_FAMILIES) <= set(TEMPLATE_FAMILIES)
        assert {"moore_handshake", "mealy_handshake", "sync_fifo",
                "skid_buffer", "round_robin_arbiter", "priority_arbiter"} \
            == set(SCENARIO_FAMILIES)

    @pytest.mark.parametrize("family", SCENARIO_FAMILIES)
    def test_compiles(self, family):
        for trial in range(3):
            seed = make_instance(family, random.Random(trial))
            result = compile_source(seed.source)
            assert result.ok, f"{family}: {result.failure_summary()}"

    @pytest.mark.parametrize("family", SCENARIO_FAMILIES)
    def test_golden_svas_pass_batched_check(self, family):
        """Every hint of every scenario family must survive one shared
        bounded check (the pipeline's batched validation path)."""
        canonical = CorpusGenerator(seed=41).generate_one(family)
        blocks = []
        for hint in canonical.meta.sva_hints:
            blocks.append(hint.property_source())
            blocks.append(hint.assertion_source())
        combined = compile_with_sva(canonical.source, blocks)
        assert combined.ok, combined.failure_summary()
        outcome = bounded_check_batch(
            combined.design, BmcConfig(depth=10, random_trials=24))
        assert outcome.design_error is None
        rejected = [hint.name for hint in canonical.meta.sva_hints
                    if outcome.rejects(f"{hint.name}_assertion")]
        assert not rejected, f"{family}: rejected {rejected}"

    @pytest.mark.parametrize("family", SCENARIO_FAMILIES)
    def test_meta_family_matches_registry_key(self, family):
        seed = make_instance(family, random.Random(1))
        assert seed.meta.family == family
        assert seed.meta.sva_hints and seed.meta.behaviour


class TestFamilySelection:
    def test_resolve_defaults_cover_registry(self):
        names, weights = resolve_families()
        assert names == tuple(sorted(TEMPLATE_FAMILIES))
        assert len(weights) == len(names)
        assert weights[names.index("register_file")] == \
            DEFAULT_FAMILY_WEIGHTS["register_file"]

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown template family"):
            resolve_families(["not_a_family"])

    def test_empty_selection_rejected(self):
        """Explicitly empty is an error; only None means 'all families'."""
        with pytest.raises(ValueError, match="empty"):
            resolve_families(())
        with pytest.raises(ValueError, match="empty"):
            DatagenConfig(template_families=())

    def test_duplicate_selection_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            resolve_families(["fsm", "fsm"])

    def test_weight_for_unselected_family_rejected(self):
        with pytest.raises(ValueError, match="unselected"):
            resolve_families(["fsm"], {"sync_fifo": 2.0})

    def test_non_positive_weight_rejected(self):
        with pytest.raises(ValueError, match="> 0"):
            resolve_families(["fsm"], {"fsm": 0.0})

    @pytest.mark.parametrize("weight", [float("inf"), float("nan")])
    def test_non_finite_weight_rejected(self, weight):
        with pytest.raises(ValueError, match="finite"):
            resolve_families(["fsm"], {"fsm": weight})
        # Refused by config validation, before the corpus stage runs.
        with pytest.raises(ValueError, match="finite"):
            DatagenConfig(template_families=("fsm",),
                          family_weights={"fsm": weight})

    def test_generator_samples_only_selected(self):
        chosen = ["sync_fifo", "round_robin_arbiter"]
        designs = CorpusGenerator(seed=9, families=chosen).generate(20)
        assert {d.meta.family for d in designs} == set(chosen)

    def test_weights_shift_distribution(self):
        chosen = ["moore_handshake", "skid_buffer"]
        heavy = CorpusGenerator(seed=9, families=chosen,
                                weights={"skid_buffer": 50.0}).generate(40)
        counts = {}
        for design in heavy:
            counts[design.meta.family] = counts.get(design.meta.family, 0) + 1
        assert counts.get("skid_buffer", 0) > counts.get("moore_handshake", 0)

    def test_datagen_config_rejects_unknown_family(self):
        with pytest.raises(ValueError, match="unknown template family"):
            DatagenConfig(template_families=("bogus_family",))
        with pytest.raises(ValueError, match="unknown template family"):
            DatagenConfig(family_weights={"bogus_family": 2.0})


class TestCorpusEngineStage:
    def test_parallel_generation_equals_serial(self):
        serial = CorpusGenerator(seed=33).generate(16)
        with ExecutionEngine(n_workers=4, backend="process") as engine:
            parallel = CorpusGenerator(seed=33).generate(16, engine=engine)
        assert [(d.name, d.source) for d in serial] == \
            [(d.name, d.source) for d in parallel]

    def test_generate_one_walk_matches_batch(self):
        batch = CorpusGenerator(seed=33).generate(8)
        walker = CorpusGenerator(seed=33)
        walk = [walker.generate_one() for _ in range(8)]
        assert [d.source for d in walk] == [d.source for d in batch]

    def test_corpus_stage_counted_by_engine(self):
        config = DatagenConfig(n_designs=4, bugs_per_design=2, seed=3,
                               bmc_depth=6, bmc_random_trials=8)
        bundle = run_pipeline(config)
        assert bundle.stats["engine"]["stages"]["corpus"]["units"] == 4

    def test_scenario_pipeline_parallel_equals_serial(self):
        """Acceptance: a bundle built from the three new scenario family
        groups is byte-identical between n_workers=1 and n_workers=4 and
        contains designs from each group."""
        families = ("moore_handshake", "mealy_handshake", "sync_fifo",
                    "skid_buffer", "round_robin_arbiter", "priority_arbiter")
        common = dict(n_designs=9, bugs_per_design=2, seed=19,
                      bmc_depth=6, bmc_random_trials=8,
                      template_families=families,
                      family_weights={"sync_fifo": 1.5})
        serial = run_pipeline(DatagenConfig(n_workers=1, **common))
        parallel = run_pipeline(DatagenConfig(n_workers=4, backend="process",
                                              **common))
        assert serial.fingerprint() == parallel.fingerprint()
        produced = set(serial.stats["corpus_families"])
        assert produced <= set(families)
        assert produced & {"moore_handshake", "mealy_handshake"}
        assert produced & {"sync_fifo", "skid_buffer"}
        assert produced & {"round_robin_arbiter", "priority_arbiter"}
