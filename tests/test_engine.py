"""The stage execution engine: RNG derivation, backends, compile
caching, config validation, and the parallel==serial guarantee."""

import pytest

from repro.datagen.pipeline import (
    VOLATILE_STAT_KEYS,
    DatagenConfig,
    run_pipeline,
)
from repro.engine import (
    BACKENDS,
    ExecutionEngine,
    StageContext,
    derive_rng,
    derive_seed,
)
from repro.eval.config import EvalConfig
from repro.eval.runner import run_eval
from repro.sim import compiled
from repro.verilog.compile import (
    CompileCache,
    _compile_uncached,
    compile_source,
    default_compile_cache,
)


def _square(x):
    return x * x


def _double(x):
    return 2 * x


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(7, "stage1", "mod_a") == \
            derive_seed(7, "stage1", "mod_a")

    def test_sensitive_to_every_part(self):
        base = derive_seed(7, "stage1", "mod_a")
        assert derive_seed(8, "stage1", "mod_a") != base
        assert derive_seed(7, "stage2", "mod_a") != base
        assert derive_seed(7, "stage1", "mod_b") != base

    def test_type_sensitive(self):
        assert derive_seed(1) != derive_seed("1")

    def test_no_boundary_collision(self):
        assert derive_seed("ab", "c") != derive_seed("a", "bc")

    def test_derive_rng_streams_independent(self):
        a = derive_rng(1, "s", "u")
        b = derive_rng(1, "s", "u")
        assert [a.random() for _ in range(4)] == \
            [b.random() for _ in range(4)]

    def test_unit_ids_disambiguate_name_collisions(self):
        from repro.corpus.meta import DesignSeed
        from repro.datagen.stage1 import unit_ids

        seeds = [DesignSeed("adder_7", "src_a", None),
                 DesignSeed("adder_7", "src_b", None),
                 DesignSeed("mux_3", "src_c", None)]
        assert unit_ids(seeds) == ["adder_7", "adder_7#1", "mux_3"]

    def test_stage_context_labels(self):
        ctx = StageContext(2025, "stage2", "mod_x")
        assert ctx.rng("sva").random() != ctx.rng("bugs").random()
        assert ctx.seed_for("sva") == \
            StageContext(2025, "stage2", "mod_x").seed_for("sva")


class TestExecutionEngine:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_map_preserves_order(self, backend):
        with ExecutionEngine(n_workers=3, backend=backend) as engine:
            assert engine.map(_square, list(range(20)), stage="sq") == \
                [x * x for x in range(20)]

    def test_auto_degrades_to_serial_when_no_cores(self, monkeypatch):
        import repro.engine.executor as executor
        monkeypatch.setattr(executor, "available_cpus", lambda: 1)
        engine = executor.ExecutionEngine(n_workers=8, backend="auto")
        assert engine.backend == "serial"
        assert engine.requested_workers == 8

    def test_single_worker_is_serial(self):
        assert ExecutionEngine(n_workers=1, backend="process").backend \
            == "serial"

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            ExecutionEngine(backend="gpu")
        with pytest.raises(ValueError, match="n_workers"):
            ExecutionEngine(n_workers=0)

    def test_stats_accumulate_per_stage(self):
        with ExecutionEngine() as engine:
            engine.map(_square, [1, 2], stage="alpha")
            engine.map(_square, [3], stage="alpha")
            engine.map(_double, [4], stage="beta")
            stats = engine.stats()
        assert stats["stages"]["alpha"]["units"] == 3
        assert stats["stages"]["beta"]["units"] == 1
        assert stats["backend"] in BACKENDS

    def test_closed_engine_refuses_work(self):
        engine = ExecutionEngine()
        engine.close()
        with pytest.raises(RuntimeError):
            engine.map(_square, [1], stage="sq")


class TestPipelineStages:
    def test_engine_stages_in_pipeline_order(self, small_bundle):
        # The split runs in the parent between stage2 and stage3, not
        # through engine.map, so it has no engine bucket.
        assert list(small_bundle.stats["engine"]["stages"]) == \
            ["corpus", "stage1", "stage2", "stage3"]


class TestCompileCache:
    GOLDEN = ("module t (input clk, input a, output reg q);\n"
              "  always @(posedge clk) q <= a;\nendmodule\n")

    def test_repeated_golden_compiles_hit(self):
        cache = CompileCache()
        first = cache.get_or_compile(self.GOLDEN)
        again = cache.get_or_compile(self.GOLDEN)
        assert first.ok
        assert again is first
        assert cache.counters() == {"hits": 1, "misses": 1,
                                    "evictions": 0, "store_hits": 0}
        assert cache.hit_rate == 0.5

    def test_failures_cached_too(self):
        cache = CompileCache()
        bad = "module broken (\n"
        assert not cache.get_or_compile(bad).ok
        assert not cache.get_or_compile(bad).ok
        assert cache.hits == 1

    def test_lru_eviction(self):
        cache = CompileCache(max_entries=1)
        cache.get_or_compile(self.GOLDEN)
        cache.get_or_compile("module other ();\n  assign 1;\nendmodule\n")
        assert cache.evictions == 1
        assert len(cache) == 1

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError, match="max_entries"):
            CompileCache(max_entries=0)

    def test_compile_source_bypass(self):
        a = compile_source(self.GOLDEN)
        b = compile_source(self.GOLDEN, use_cache=False)
        assert b is not a
        assert b.ok == a.ok


class TestDatagenConfigValidation:
    def test_defaults_valid(self):
        DatagenConfig()

    @pytest.mark.parametrize("field,value", [
        ("n_designs", 0), ("bugs_per_design", 0), ("bmc_depth", 0),
        ("bmc_random_trials", -1), ("n_workers", 0), ("break_rate", 1.5),
        ("hallucination_rate", -0.1), ("train_fraction", 2.0),
        ("backend", "gpu"),
    ])
    def test_offending_field_named(self, field, value):
        with pytest.raises(ValueError, match=field):
            DatagenConfig(**{field: value})

    def test_mutated_config_revalidated_by_run(self):
        config = DatagenConfig(n_designs=2)
        config.train_fraction = 3.0
        with pytest.raises(ValueError, match="train_fraction"):
            run_pipeline(config)


class TestParallelDeterminism:
    CONFIG = dict(n_designs=8, bugs_per_design=2, seed=23,
                  bmc_depth=6, bmc_random_trials=8)

    def test_parallel_equals_serial(self):
        serial = run_pipeline(DatagenConfig(n_workers=1, **self.CONFIG))
        parallel = run_pipeline(DatagenConfig(n_workers=4,
                                              backend="process",
                                              **self.CONFIG))
        assert serial.fingerprint() == parallel.fingerprint()
        assert serial.comparable() == parallel.comparable()
        # The volatile keys exist on both sides but are allowed to differ.
        for key in VOLATILE_STAT_KEYS:
            assert key in serial.stats and key in parallel.stats
        assert parallel.stats["engine"]["backend"] == "process"

    def test_cache_disabled_same_datasets(self, monkeypatch):
        cached = run_pipeline(DatagenConfig(**self.CONFIG))
        # The uncached reference: every cache lookup compiles afresh
        # (serial backend, so the patch reaches every compile).
        monkeypatch.setattr(CompileCache, "get_or_compile",
                            lambda self, text: _compile_uncached(text))
        uncached = run_pipeline(DatagenConfig(backend="serial",
                                              **self.CONFIG))
        assert cached.fingerprint() == uncached.fingerprint()
        assert uncached.stats["compile_cache"]["hits"] == 0

    def test_serial_and_process_runs_count_the_same_work(self):
        def cold_run(**settings):
            # Forked workers inherit this process's caches: empty them so
            # that neither run finds the other's designs and programs.
            default_compile_cache().clear()
            compiled._CODE.clear()
            return run_pipeline(DatagenConfig(coverage=True, **settings,
                                              **self.CONFIG))

        serial = cold_run()
        pooled = cold_run(n_workers=2, backend="process")
        assert serial.stats["coverage"]["reports_total"] > 0
        assert pooled.stats["coverage"] == serial.stats["coverage"]

        # Each worker keeps its own compile cache, so a source compiled
        # in one worker is a miss in the next: the hit/miss split follows
        # the schedule, the lookups do not.
        def lookups(bundle):
            cache = bundle.stats["compile_cache"]
            return cache["hits"] + cache["store_hits"] + cache["misses"]

        assert lookups(pooled) == lookups(serial) > 0

        def phases(bundle):
            return {key for key, value
                    in bundle.stats["solve_profile"].items() if value > 0}

        assert phases(pooled) == phases(serial) != set()

    def test_pipeline_reports_cache_hits(self):
        bundle = run_pipeline(DatagenConfig(**self.CONFIG))
        assert bundle.stats["compile_cache"]["hits"] > 0
        assert 0.0 < bundle.stats["compile_cache"]["hit_rate"] <= 1.0


class TestBatchedSvaValidation:
    """The batched validator must reproduce per-proposal verdicts exactly."""

    def test_batched_matches_per_proposal(self):
        from repro.corpus.generator import CorpusGenerator
        from repro.datagen.stage2 import (
            _validate_svas_per_proposal,
            validate_svas,
        )
        from repro.oracles.sva import SvaOracle
        from repro.sva.bmc import BmcConfig

        bmc = BmcConfig(depth=6, random_trials=8)
        designs = CorpusGenerator(seed=51).generate(10)
        compared = 0
        for design in designs:
            # A high distortion rate exercises every rejection path:
            # syntax-broken, failing, and monitor-error proposals.
            oracle = SvaOracle(derive_rng(51, design.name),
                               hallucination_rate=0.6)
            proposals = oracle.propose(design)
            batched_valid, batched_rejected = validate_svas(
                design, proposals, bmc)
            ref_valid, ref_rejected = _validate_svas_per_proposal(
                design, proposals, bmc)
            assert [p.name for p in batched_valid] == \
                [p.name for p in ref_valid]
            assert batched_rejected == ref_rejected
            compared += len(proposals)
        assert compared > 0

    def test_pipeline_identical_across_modes(self, monkeypatch):
        from repro.datagen import stage2

        config = dict(n_designs=6, bugs_per_design=2, seed=29,
                      bmc_depth=6, bmc_random_trials=8)
        batched = run_pipeline(DatagenConfig(**config))
        monkeypatch.setattr(stage2, "validate_svas",
                            stage2._validate_svas_per_proposal)
        reference = run_pipeline(DatagenConfig(**config))
        assert batched.fingerprint() == reference.fingerprint()


class TestParallelEvaluation:
    def test_parallel_eval_equals_serial(self, small_bundle):
        from repro.baselines.engine import make_baseline

        cases = small_bundle.sva_eval_machine
        if not cases:
            pytest.skip("no machine cases at this scale")
        model = make_baseline("GPT-4", seed=3)
        serial = run_eval(model, cases, EvalConfig(n_samples=6, seed=11))
        with ExecutionEngine(n_workers=3, backend="process") as engine:
            parallel = run_eval(model, cases, EvalConfig(n_samples=6, seed=11),
                                engine=engine)
        assert serial.case_outcomes() == parallel.case_outcomes()
