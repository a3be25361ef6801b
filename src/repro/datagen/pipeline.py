"""Pipeline orchestrator: corpus -> Stage 1 -> Stage 2 -> split -> Stage 3.

``run_pipeline`` is the one-call reproduction of the paper's Section II at
a configurable scale, returning a :class:`DatasetBundle` with the three
training datasets, the machine half of the SVA-Eval benchmark, and the
bookkeeping statistics the paper reports (dataset sizes, CoT validity,
SVA/bug rejection counts).

The pipeline itself is a thin :class:`repro.engine.StageGraph`
declaration; the per-design work inside each stage fans out across an
:class:`repro.engine.ExecutionEngine` worker pool (``n_workers`` /
``backend`` knobs).  All randomness derives per
``(seed, module_name, stage_name)``, so ``n_workers=4`` produces a bundle
byte-identical to ``n_workers=1`` — assert with
:meth:`DatasetBundle.fingerprint`, which excludes only the volatile
engine/compile-cache stat keys.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import knobs
from repro.corpus.generator import CorpusGenerator, resolve_families
from repro.datagen.records import (
    SvaBugEntry,
    SvaEvalCase,
    VerilogBugEntry,
    VerilogPTEntry,
    distribution_table,
)
from repro.datagen.split import assert_disjoint, split_by_module_name
from repro.datagen.stage1 import run_stage1
from repro.datagen.stage2 import run_stage2
from repro.datagen.stage3 import run_stage3
from repro.engine import BACKENDS, ExecutionEngine, StageGraph, derive_rng
from repro.knobs import EXECUTION, SEMANTIC, configclass, knob
from repro.store import StoreConfig
from repro.sva.bmc import BmcConfig

#: ``DatasetBundle.stats`` keys that legitimately differ between backends
#: and between cold/warm runs (wall times, worker counts, cache and store
#: hit attribution, coverage-collection totals).
VOLATILE_STAT_KEYS = ("engine", "compile_cache", "store", "solve_profile",
                      "coverage")


#: Stage 2 always validates SVAs with one batched check
#: (:func:`repro.datagen.stage2.validate_svas`); the retired
#: ``sva_validation`` keeps stage-memo keys from before that.
@configclass(retired={"sva_validation": "batched"})
class DatagenConfig:
    """Scale, rate and execution knobs.

    The paper runs on 108,971 corpus samples; ``n_designs`` scales the
    whole pipeline down while preserving every stage's behaviour (the
    bundle's ``stats`` record both our counts and the paper's).
    ``n_workers``/``backend`` control the engine's worker pool; neither
    changes the produced datasets, which is why neither enters
    ``semantic_digest``.  Compiles are always memoized by the
    process-wide content-hash cache (:mod:`repro.verilog.compile`), with
    ``store``'s disk tier under it for the run when it has a path.

    ``coverage`` attaches coverage collection (:mod:`repro.cov`) to every
    BMC run; the totals land in the volatile ``stats["coverage"]`` key.
    It is a pure execution knob too — it changes no dataset byte and
    stays out of ``semantic_digest``.

    ``template_families`` restricts corpus sampling to a subset of the
    registered template families (default: all) and ``family_weights``
    overrides per-family sampling weights; both are semantic knobs — they
    change which designs the corpus contains — and both are validated
    against the registry, so an unregistered family name fails fast
    instead of silently contributing zero designs.
    """

    n_designs: int = knob(60, kind=int, ge=1, role=SEMANTIC)
    bugs_per_design: int = knob(4, kind=int, ge=1, role=SEMANTIC)
    seed: int = knob(2025, kind=int, role=SEMANTIC)
    break_rate: float = knob(0.25, kind=float, ge=0, le=1, role=SEMANTIC)
    hallucination_rate: float = knob(0.15, kind=float, ge=0, le=1,
                                     role=SEMANTIC)
    train_fraction: float = knob(0.9, kind=float, ge=0, le=1, role=SEMANTIC)
    bmc_depth: int = knob(10, kind=int, ge=1, role=SEMANTIC)
    bmc_random_trials: int = knob(24, kind=int, ge=0, role=SEMANTIC)
    n_workers: int = knob(1, kind=int, ge=1, role=EXECUTION)
    backend: str = knob("auto", kind=str, choices=BACKENDS, role=EXECUTION)
    coverage: bool = knob(False, kind=bool, role=EXECUTION)
    template_families: Optional[Tuple[str, ...]] = knob(
        None, kind=(tuple, list), items=str, optional=True, role=SEMANTIC)
    family_weights: Optional[Dict[str, float]] = knob(
        None, kind=dict, optional=True, role=SEMANTIC)
    store: Optional[StoreConfig] = knob(None, kind=StoreConfig,
                                       optional=True, role=EXECUTION)

    def _check(self) -> None:
        # Raises ValueError on unknown family names / bad weights.
        resolve_families(self.template_families, self.family_weights)

    def semantic_digest(self) -> str:
        """SHA-256 over every ``semantic`` knob and the package version.

        This is the ``config_digest`` part of the stage-memoization key
        (see :func:`repro.store.unit_memo_key`): stored unit results are
        reused only when the run is semantically identical, while pure
        execution knobs (workers, backend, caches, the store itself) stay
        out so a parallel warm run hits what a serial cold run stored.
        """
        return knobs.digest(self)

    def make_corpus_generator(self) -> CorpusGenerator:
        return CorpusGenerator(seed=self.seed,
                               families=self.template_families,
                               weights=self.family_weights)

    def bmc(self) -> BmcConfig:
        return BmcConfig(depth=self.bmc_depth,
                         random_trials=self.bmc_random_trials,
                         seed=self.seed, coverage=self.coverage)

    def make_engine(self, store=None) -> ExecutionEngine:
        """An engine that holds this config's compile tier open.

        ``store`` (built from ``self.store`` by the pipeline) enables
        stage-level memoization; ``self.store``'s disk directory, when
        it has one, is the compile cache's persistent tier in this
        process and every worker, so compile artifacts are shared
        across the whole worker fleet.
        """
        return ExecutionEngine(
            n_workers=self.n_workers, backend=self.backend,
            compile_store=self.store, store=store,
            memo_context=self.semantic_digest())


@dataclass
class DatasetBundle:
    """Everything the training and evaluation phases consume."""

    verilog_pt: List[VerilogPTEntry] = field(default_factory=list)
    verilog_bug: List[VerilogBugEntry] = field(default_factory=list)
    sva_bug_train: List[SvaBugEntry] = field(default_factory=list)
    sva_eval_machine: List[SvaEvalCase] = field(default_factory=list)
    stats: Dict[str, object] = field(default_factory=dict)

    def summary(self) -> str:
        lines = ["DatasetBundle:"]
        lines.append(f"  Verilog-PT entries:   {len(self.verilog_pt)} "
                     f"(paper: 22,646)")
        lines.append(f"  Verilog-Bug entries:  {len(self.verilog_bug)} "
                     f"(paper: 36,650)")
        lines.append(f"  SVA-Bug train:        {len(self.sva_bug_train)} "
                     f"(paper: 7,842)")
        lines.append(f"  SVA-Eval-Machine:     {len(self.sva_eval_machine)} "
                     f"(paper: 877)")
        rate = self.stats.get("cot_validity_rate")
        if isinstance(rate, float):
            lines.append(f"  CoT validity:         {rate:.2%} (paper: 74.55%)")
        return "\n".join(lines)

    # -- determinism ---------------------------------------------------------

    def comparable(self) -> Dict[str, object]:
        """A plain-data projection of every entry and every non-volatile
        stat, suitable for cross-run equality checks."""

        def record_data(record) -> Tuple:
            return (record.design_name, record.buggy_source,
                    record.golden_source, record.line, record.buggy_line,
                    record.fixed_line, record.op_name, record.kind.value,
                    record.conditionality.value, record.description)

        def sva_entry_data(entry: SvaBugEntry) -> Tuple:
            return (record_data(entry.record), entry.spec,
                    entry.buggy_source_with_sva, entry.logs,
                    list(entry.failing_labels), entry.relation.value,
                    list(entry.assertion_signals), entry.cot)

        return {
            "verilog_pt": [(e.source, e.spec, e.analysis, e.compiles,
                            e.break_kind) for e in self.verilog_pt],
            "verilog_bug": [(record_data(e.record), e.spec)
                            for e in self.verilog_bug],
            "sva_bug_train": [sva_entry_data(e) for e in self.sva_bug_train],
            "sva_eval_machine": [(c.case_id, c.origin, sva_entry_data(c.entry))
                                 for c in self.sva_eval_machine],
            "stats": {key: value for key, value in self.stats.items()
                      if key not in VOLATILE_STAT_KEYS},
        }

    def fingerprint(self) -> str:
        """SHA-256 over :meth:`comparable` — equal fingerprints mean
        byte-identical datasets (modulo volatile engine/cache stats)."""
        payload = json.dumps(self.comparable(), sort_keys=True,
                             default=str).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()


def build_stage_graph(config: DatagenConfig) -> StageGraph:
    """Declare the Section-II pipeline as a stage DAG.

    Per-design fan-out happens inside the stage bodies via
    ``inputs.engine``; the graph stays a readable five-node declaration::

        corpus -> stage1 -> stage2 -> split -> stage3
    """
    graph = StageGraph("datagen")

    # The corpus is a source node that fans out like any other stage:
    # every design's template stream derives from its design_id alone.
    graph.add_stage("corpus", lambda inputs: config.make_corpus_generator()
                    .generate(config.n_designs, engine=inputs.engine))

    graph.add_stage("stage1", lambda inputs: run_stage1(
        inputs["corpus"], break_rate=config.break_rate,
        global_seed=config.seed, engine=inputs.engine),
        deps=("corpus",))

    graph.add_stage("stage2", lambda inputs: run_stage2(
        inputs["stage1"].compiled, seed=config.seed,
        bugs_per_design=config.bugs_per_design,
        hallucination_rate=config.hallucination_rate,
        bmc=config.bmc(), engine=inputs.engine),
        deps=("stage1",))

    def split_stage(inputs):
        train, test = split_by_module_name(
            inputs["stage2"].sva_bug_entries,
            derive_rng(config.seed, "split"),
            train_fraction=config.train_fraction)
        assert_disjoint(train, test)
        return train, test

    graph.add_stage("split", split_stage, deps=("stage2",))

    graph.add_stage("stage3", lambda inputs: run_stage3(
        inputs["split"][0], seed=config.seed, engine=inputs.engine),
        deps=("split",))

    return graph


def run_pipeline(config: DatagenConfig) -> DatasetBundle:
    """Run the full Section-II pipeline at the configured scale.

    With ``config.store`` pointing at a populated disk directory, stage
    units whose results the store already holds are skipped entirely
    (cross-run incremental execution); the produced bundle is
    byte-identical either way — a warm run and a cold run share one
    :meth:`DatasetBundle.fingerprint`.
    """
    config.validate()
    store = config.store.make_store() if config.store is not None else None
    with config.make_engine(store=store) as engine:
        before = engine.counter_totals()
        outputs = build_stage_graph(config).run(engine)
        bundle = _assemble(config, outputs)
        _attach_execution_stats(bundle, engine, before, store)
    return bundle


def _assemble(config: DatagenConfig, outputs: Dict[str, object]
              ) -> DatasetBundle:
    stage1, stage2 = outputs["stage1"], outputs["stage2"]
    stage3 = outputs["stage3"]
    _, test = outputs["split"]
    corpus_families: Dict[str, int] = {}
    for design in outputs["corpus"]:
        family = design.meta.family
        corpus_families[family] = corpus_families.get(family, 0) + 1

    bundle = DatasetBundle()
    bundle.verilog_pt = stage1.pt_entries
    bundle.verilog_bug = stage2.verilog_bug_entries
    bundle.sva_bug_train = stage3.entries
    bundle.sva_eval_machine = [
        SvaEvalCase(f"machine_{i:04d}", entry, origin="machine")
        for i, entry in enumerate(test)
    ]
    bundle.stats = {
        "n_designs": config.n_designs,
        "corpus_families": corpus_families,
        "stage1_filtered": stage1.filtered_count,
        "stage1_duplicates": stage1.duplicate_count,
        "stage1_failed_compile": stage1.failed_compile_count,
        "stage2_accepted_svas": stage2.accepted_svas,
        "stage2_rejected_svas": stage2.rejected_svas,
        "stage2_rejected_bugs_syntax": stage2.rejected_bugs_syntax,
        "stage2_sim_errors": stage2.sim_error_count,
        "cot_validity_rate": stage3.validity_rate,
        "train_fraction_target": config.train_fraction,
        "sva_bug_distribution": distribution_table(
            bundle.sva_bug_train),
        "sva_eval_distribution": distribution_table(
            [case.entry for case in bundle.sva_eval_machine]),
    }
    return bundle


def _attach_execution_stats(bundle: DatasetBundle, engine: ExecutionEngine,
                            before: Dict[str, Dict[str, int]],
                            store=None) -> None:
    """Add the volatile ``engine`` / ``compile_cache`` / ``store`` /
    ``solve_profile`` / ``coverage`` keys; the counters are
    :meth:`ExecutionEngine.counter_totals` now minus ``before``."""
    if store is None:
        bundle.stats["store"] = {"enabled": False}
    else:
        stages = engine.stats()["stages"].values()
        bundle.stats["store"] = {
            "enabled": True,
            "counters": store.counters(),
            "stage_memo_hits": sum(s.get("memo_hits", 0) for s in stages),
            "stage_memo_misses": sum(s.get("memo_misses", 0)
                                     for s in stages),
        }
    after = engine.counter_totals()

    def run_counts(provider: str) -> Dict[str, float]:
        base = before.get(provider, {})
        return {key: value - base.get(key, 0)
                for key, value in after.get(provider, {}).items()}

    cache = run_counts("compile_cache")
    served = cache.get("hits", 0) + cache.get("store_hits", 0)
    lookups = served + cache.get("misses", 0)
    cache["hit_rate"] = (served / lookups) if lookups else 0.0
    bundle.stats["compile_cache"] = cache
    bundle.stats["solve_profile"] = run_counts("solve_profile")
    bundle.stats["coverage"] = run_counts("coverage")
    bundle.stats["engine"] = engine.stats()
