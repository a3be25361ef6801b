"""Public API: :class:`AssertSolverPipeline` reproduces the whole paper.

    from repro import AssertSolverPipeline, PipelineConfig

    pipeline = AssertSolverPipeline(PipelineConfig(n_designs=80))
    pipeline.run_datagen()       # Section II  (Verilog-PT / -Bug / SVA-Bug)
    pipeline.train()             # Section III (PT -> SFT -> DPO)
    pipeline.build_benchmark()   # Section IV  (SVA-Eval machine + human)
    results = pipeline.evaluate()           # Section V (all models)
    print(pipeline.report())                # all tables and figures

Each step is lazily triggered by the ones after it, so ``pipeline.report()``
alone runs everything.  A module-level cache keyed by the configuration lets
the benchmark suite share one trained pipeline across benches.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro import knobs
from repro.baselines.engine import BaselineModel
from repro.baselines.profiles import BASELINE_PROFILES
from repro.corpus.generator import resolve_families
from repro.datagen.pipeline import DatagenConfig, DatasetBundle, run_pipeline
from repro.engine import BACKENDS, ExecutionEngine
from repro.eval.benchmark import SvaEvalBenchmark, build_benchmark
from repro.eval.histogram import render_histogram
from repro.eval.reporting import (
    render_fig4,
    render_fig5,
    render_table1,
    render_table2,
    render_table3,
    render_table4,
)
from repro.eval.config import EvalConfig
from repro.eval.report import EvalReport
from repro.eval.runner import run_eval
from repro.knobs import EXECUTION, SEMANTIC, configclass, knob
from repro.model.assertsolver import AssertSolver
from repro.store import StoreConfig


def make_fleet(n_backends: int = 3, serve: Optional["ServeConfig"] = None,
               router: Optional["RouterConfig"] = None) -> "FleetRouter":
    """An (unstarted) router-managed fleet: ``n_backends`` identical
    :class:`AssertHttpServer` instances (each with its own
    :class:`AssertService` built from ``serve``) behind one
    :class:`FleetRouter` built from ``router`` (backends bind ephemeral
    ports on its host).  ``router.start()`` — or ``with`` — brings the
    whole fleet up; ``router.close()`` drains it in order.  Backends get
    stable ring names ``backend-0..N-1``, so the key->backend map — and
    with it cache affinity — is the same on every launch regardless of
    which ephemeral ports the instances bind.  Point the backends at one
    shared :class:`StoreConfig` path to make the fleet cache-coherent
    across restarts."""
    from repro.serve import (
        AssertHttpServer,
        AssertService,
        FleetRouter,
        HttpConfig,
        RouterConfig,
        ServeConfig,
    )

    if n_backends < 1:
        raise ValueError(f"n_backends must be >= 1, got {n_backends!r}")
    serve = serve if serve is not None else ServeConfig()
    router = router if router is not None else RouterConfig()
    backends = [
        AssertHttpServer(AssertService(serve),
                         HttpConfig(host=router.host, port=0))
        for _ in range(n_backends)
    ]
    return FleetRouter(
        backends, router, manage_backends=True,
        node_names=[f"backend-{i}" for i in range(n_backends)])


@configclass
class PipelineConfig:
    """Scale and execution knobs for a full reproduction run.

    ``n_workers``/``backend`` parallelize both the datagen stage graph
    and model evaluation; they never change results (all randomness is
    derived per work unit).

    ``template_families``/``family_weights`` select and weight the corpus
    scenario families (FSMs, FIFOs, arbiters, datapaths, ...) the whole
    reproduction trains and evaluates on; see
    :func:`repro.corpus.resolve_families` for validation rules.
    """

    n_designs: int = knob(80, kind=int, ge=1, role=SEMANTIC)
    bugs_per_design: int = knob(4, kind=int, ge=1, role=SEMANTIC)
    seed: int = knob(2025, kind=int, role=SEMANTIC)
    n_samples: int = knob(20, kind=int, ge=1, role=SEMANTIC)
    include_human: bool = knob(True, kind=bool, role=SEMANTIC)
    include_baselines: bool = knob(True, kind=bool, role=SEMANTIC)
    n_workers: int = knob(1, kind=int, ge=1, role=EXECUTION)
    backend: str = knob("auto", kind=str, choices=BACKENDS, role=EXECUTION)
    template_families: Optional[Tuple[str, ...]] = knob(
        None, kind=(tuple, list), items=str, optional=True, role=SEMANTIC)
    family_weights: Optional[Dict[str, float]] = knob(
        None, kind=dict, optional=True, role=SEMANTIC)
    #: Persistent artifact store (see :class:`repro.store.StoreConfig`):
    #: an execution knob like ``n_workers`` — it makes re-runs
    #: incremental (datagen) and lets service fleets pool responses
    #: (serve), but never changes results.
    store: Optional[StoreConfig] = knob(None, kind=StoreConfig,
                                       optional=True, role=EXECUTION)

    def _check(self) -> None:
        # Fail fast on unknown/empty family selections instead of minutes
        # later when run_datagen() first builds a DatagenConfig.
        resolve_families(self.template_families, self.family_weights)

    def datagen(self) -> DatagenConfig:
        return DatagenConfig(n_designs=self.n_designs,
                             bugs_per_design=self.bugs_per_design,
                             seed=self.seed,
                             n_workers=self.n_workers,
                             backend=self.backend,
                             template_families=self.template_families,
                             family_weights=self.family_weights,
                             store=self.store)

    def make_engine(self) -> ExecutionEngine:
        return ExecutionEngine(n_workers=self.n_workers,
                               backend=self.backend)

    def eval_config(self, **overrides) -> EvalConfig:
        """The :class:`repro.eval.EvalConfig` this pipeline evaluates
        under; keyword overrides win.  The eval seed is offset from the
        pipeline seed so sampling during evaluation never replays the
        datagen/training streams."""
        settings = dict(n_samples=self.n_samples, seed=self.seed + 1)
        settings.update(overrides)
        return EvalConfig(**settings)

    def serve(self, **overrides) -> "ServeConfig":
        """A :class:`repro.serve.ServeConfig` inheriting this config's
        execution knobs (workers, backend, caching, seed); keyword
        overrides win.  ``pipeline.config.serve(max_batch=32)`` is the
        one-liner from a batch reproduction setup to an online service."""
        from repro.serve import ServeConfig

        settings = dict(n_workers=self.n_workers, backend=self.backend,
                        seed=self.seed, store=self.store)
        settings.update(overrides)
        return ServeConfig(**settings)

    def make_service(self, **overrides) -> "AssertService":
        """An (unstarted) :class:`repro.serve.AssertService` over
        :meth:`serve`'s config — start it with ``with`` or `.start()`."""
        from repro.serve import AssertService

        return AssertService(self.serve(**overrides))

    def serve_http(self, host: str = "127.0.0.1", port: int = 0,
                   **overrides) -> "AssertHttpServer":
        """An (unstarted) :class:`repro.serve.AssertHttpServer` fronting
        :meth:`make_service`'s service — the one-liner from a batch
        reproduction setup to a network service.  ``port=0`` binds an
        ephemeral port (read it off ``server.port`` after ``start()``);
        keyword overrides reach the underlying :class:`ServeConfig`."""
        from repro.serve import AssertHttpServer, HttpConfig

        return AssertHttpServer(self.make_service(**overrides),
                                HttpConfig(host=host, port=port))

    def serve_fleet(self, n_backends: int = 3, host: str = "127.0.0.1",
                    port: int = 0, **overrides) -> "FleetRouter":
        """An (unstarted) :class:`repro.serve.FleetRouter` over
        ``n_backends`` identical backends built from :meth:`serve`'s
        config — the one-liner from a batch reproduction setup to a
        horizontally scaled service.  Keyword overrides reach the
        per-backend :class:`ServeConfig`; the router binds ``port``
        (0 = ephemeral, read it off ``router.port`` after start)."""
        from repro.serve import RouterConfig

        return make_fleet(n_backends, self.serve(**overrides),
                          RouterConfig(host=host, port=port))

    def cache_key(self) -> tuple:
        """The ``semantic`` knobs, for the shared-pipeline cache: the
        execution knobs never change results, so they must not fork it
        into redundant multi-minute train runs."""
        return tuple(knobs.payload(self).values())


class AssertSolverPipeline:
    """End-to-end reproduction driver."""

    def __init__(self, config: Optional[PipelineConfig] = None):
        self.config = config or PipelineConfig()
        self.bundle: Optional[DatasetBundle] = None
        self.base_model: Optional[AssertSolver] = None
        self.sft_model: Optional[AssertSolver] = None
        self.assertsolver: Optional[AssertSolver] = None
        self.benchmark: Optional[SvaEvalBenchmark] = None
        self.reports: Dict[str, EvalReport] = {}

    # -- stages --------------------------------------------------------------

    def run_datagen(self) -> DatasetBundle:
        if self.bundle is None:
            self.bundle = run_pipeline(self.config.datagen())
        return self.bundle

    def train(self) -> AssertSolver:
        """Train the three checkpoints of Table III."""
        if self.assertsolver is not None:
            return self.assertsolver
        bundle = self.run_datagen()
        self.base_model = AssertSolver(seed=self.config.seed,
                                       name="Base Model")
        model = AssertSolver(seed=self.config.seed, name="SFT Model")
        model.pretrain(bundle.verilog_pt)
        model.train_sft(bundle.sva_bug_train, bundle.verilog_bug)
        self.sft_model = model
        solver = model.clone_checkpoint("AssertSolver")
        solver._train_examples = model._train_examples
        solver.train_dpo()
        self.assertsolver = solver
        return solver

    def build_benchmark(self) -> SvaEvalBenchmark:
        if self.benchmark is None:
            bundle = self.run_datagen()
            self.benchmark = build_benchmark(
                bundle, include_human=self.config.include_human)
        return self.benchmark

    def models(self) -> List[object]:
        """All models of Table III + Table IV, in reporting order."""
        self.train()
        models: List[object] = []
        if self.config.include_baselines:
            for name in ("Claude-3.5", "GPT-4", "o1-preview",
                         "Deepseek-coder-6.7b", "CodeLlama-7b",
                         "Llama-3.1-8b"):
                models.append(BaselineModel(BASELINE_PROFILES[name],
                                            seed=self.config.seed))
        models.extend([self.base_model, self.sft_model, self.assertsolver])
        return models

    def evaluate(self) -> Dict[str, EvalReport]:
        if self.reports:
            return self.reports
        benchmark = self.build_benchmark()
        eval_config = self.config.eval_config()
        store = (self.config.store.make_store()
                 if self.config.store is not None else None)
        with self.config.make_engine() as engine:
            for model in self.models():
                report = run_eval(model, benchmark.cases, config=eval_config,
                                  engine=engine, store=store)
                self.reports[report.model_name] = report
        return self.reports

    # -- reporting -------------------------------------------------------------

    def table3_results(self) -> Dict[str, EvalReport]:
        results = self.evaluate()
        return {"Base Model": results["Base Model"],
                "SFT Model": results["SFT Model"],
                "AssertSolver": results["AssertSolver"]}

    def table4_results(self) -> Dict[str, EvalReport]:
        results = self.evaluate()
        order = ["Claude-3.5", "GPT-4", "o1-preview", "Deepseek-coder-6.7b",
                 "CodeLlama-7b", "Llama-3.1-8b", "AssertSolver"]
        return {name: results[name] for name in order if name in results}

    def report(self) -> str:
        """Every table and figure, ready to print."""
        bundle = self.run_datagen()
        results = self.evaluate()
        parts = [
            bundle.summary(),
            self.build_benchmark().summary(),
            "",
            render_table1(),
            "",
            render_table2(bundle.stats["sva_bug_distribution"],
                          bundle.stats["sva_eval_distribution"]),
            "",
            render_table3(self.table3_results()),
            "",
            render_table4(self.table4_results()),
            "",
            "Fig 3: histogram of correct answers across 20 responses",
            render_histogram({"SFT Model": results["SFT Model"],
                              "AssertSolver": results["AssertSolver"]}),
            "",
            render_fig4(self.table4_results()),
            "",
            render_fig5(results["SFT Model"], results["AssertSolver"]),
        ]
        return "\n".join(parts)


# -- shared pipeline cache (used by the benchmark suite) -----------------------

_PIPELINE_CACHE: Dict[tuple, AssertSolverPipeline] = {}


def shared_pipeline(config: Optional[PipelineConfig] = None
                    ) -> AssertSolverPipeline:
    """Process-wide cached pipeline, so every bench reuses one trained run."""
    config = config or PipelineConfig()
    key = config.cache_key()
    if key not in _PIPELINE_CACHE:
        _PIPELINE_CACHE[key] = AssertSolverPipeline(config)
    return _PIPELINE_CACHE[key]
