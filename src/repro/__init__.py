"""repro — reproduction of AssertSolver (DAC 2025).

AssertSolver is an LLM pipeline for solving SystemVerilog Assertion (SVA)
failures in RTL designs.  This package rebuilds the full system described in
the paper on a pure-Python substrate:

- :mod:`repro.verilog` — a compiler frontend for a synthesizable Verilog
  subset (substitute for Icarus Verilog).
- :mod:`repro.sim` — a cycle-based RTL simulator with 4-state values.
- :mod:`repro.sva` — SVA parsing, runtime monitors and a bounded model
  checker (substitute for SymbiYosys).
- :mod:`repro.corpus` — a parameterized generator of realistic RTL designs
  (substitute for the paper's 108,971-sample HuggingFace corpus).
- :mod:`repro.bugs` — the 7-type bug taxonomy of the paper's Table I and the
  mutation engine that injects/classifies bugs.
- :mod:`repro.oracles` — rule-based surrogates for the GPT-4 / Claude-3.5
  annotators (spec writing, SVA synthesis, CoT generation) with controlled
  imperfection so the validation stages are exercised.
- :mod:`repro.datagen` — the three-stage data augmentation pipeline
  producing the Verilog-PT / Verilog-Bug / SVA-Bug datasets.
- :mod:`repro.model` — the trainable AssertSolver surrogate (PT -> SFT ->
  DPO) and its sampling-based inference.
- :mod:`repro.baselines` — surrogate engines for the commercial/open LLMs
  compared in the paper's Table IV.
- :mod:`repro.eval` — the SVA-Eval benchmark, pass@k metrics and the
  experiment runners that regenerate every table and figure.
- :mod:`repro.serve` — the online serving layer: an async micro-batching
  assertion service with content-hash result caching, a stdlib
  JSON-over-HTTP transport (server + client), a consistent-hash fleet
  router over N instances, and a load-test harness.
- :mod:`repro.store` — the persistent content-addressed artifact store:
  crash-safe disk blobs under every cache, making datagen re-runs
  incremental and letting service fleets pool responses.
- :mod:`repro.obs` — observability: end-to-end request tracing
  (deterministic trace ids, ``X-Repro-Trace-Id`` propagation, bounded
  recent/slowest trace retention) and a unified metrics layer with
  Prometheus-text exposition, served as ``/tracez`` and ``/metricsz``
  on every HTTP server and fleet router.
"""

_API_EXPORTS = ("AssertSolverPipeline", "PipelineConfig", "make_fleet")
_SERVE_EXPORTS = ("AssertClient", "AssertHttpServer", "AssertService",
                  "EvalRequest", "EvalResponse", "FleetRouter", "HttpConfig",
                  "RouterConfig", "ServeConfig", "SolveOptions",
                  "SolveRequest")
_STORE_EXPORTS = ("DiskStore", "MemoryStore", "StoreConfig", "TieredStore")
_OBS_EXPORTS = ("MetricsRegistry", "TraceBuffer")
_EVAL_EXPORTS = ("EvalConfig", "EvalReport", "run_eval")
__all__ = [*_API_EXPORTS, *_SERVE_EXPORTS, *_STORE_EXPORTS, *_OBS_EXPORTS,
           *_EVAL_EXPORTS]
__version__ = "1.5.0"


def __getattr__(name):
    """Lazy re-exports so importing :mod:`repro` stays cheap."""
    if name in _API_EXPORTS:
        from repro.core import api

        return getattr(api, name)
    if name in _SERVE_EXPORTS:
        import repro.serve as serve

        return getattr(serve, name)
    if name in _STORE_EXPORTS:
        import repro.store as store

        return getattr(store, name)
    if name in _OBS_EXPORTS:
        import repro.obs as obs

        return getattr(obs, name)
    if name in _EVAL_EXPORTS:
        import repro.eval as eval_pkg

        return getattr(eval_pkg, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
