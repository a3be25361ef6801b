#!/usr/bin/env python
"""Quickstart: pass@k evaluation as a memoized, serveable workload.

Evaluation is a workload like datagen and solve, not a batch-only
helper that scores everything from scratch every time.  This
walkthrough shows its surface —

- :class:`repro.eval.EvalConfig` holds the validated knobs;
- :func:`repro.eval.run_eval` returns an :class:`EvalReport` whose
  ``to_json()`` is canonical (byte-stable across runs and transports);
- per-case outcomes memoize into an artifact store, so re-runs only
  score what changed — new cases, new model, new scoring knobs;
- the same workload runs over the wire: ``POST /v1/eval`` against a
  live server answers with the *same bytes* as the in-process call.

Run:  PYTHONPATH=src python examples/quickstart_eval.py
"""

import tempfile

from repro.baselines.engine import make_baseline
from repro.datagen.pipeline import DatagenConfig, run_pipeline
from repro.eval import EvalConfig, run_eval
from repro.eval.benchmark import build_benchmark
from repro.serve import (
    AssertClient,
    AssertHttpServer,
    AssertService,
    EvalRequest,
    HttpConfig,
    ServeConfig,
)
from repro.store import StoreConfig


def main() -> None:
    # 1. A benchmark (machine + human splits) and a model to grade.
    bundle = run_pipeline(DatagenConfig(n_designs=24, bugs_per_design=3,
                                        seed=42))
    cases = build_benchmark(bundle, include_human=True).cases
    model = make_baseline("GPT-4", seed=0)
    print(f"benchmark: {len(cases)} cases")

    # 2. The knob block.  n_samples/seed change per-case results;
    #    k_values only changes how outcomes aggregate into the report.
    config = EvalConfig(n_samples=40, seed=43, k_values=(1, 5))

    # 3. Cold run against a fresh store: every case is scored and its
    #    (n, c) outcome written through under the eval/v1 namespace.
    store_dir = tempfile.mkdtemp(prefix="repro_eval_")
    store = StoreConfig(path=store_dir).make_store()
    cold = run_eval(model, cases, config=config, store=store)
    print(f"cold: pass@1={cold.pass_at(1):.3f}  stats={cold.stats}")

    # 4. Warm run: zero recomputes, byte-identical report.
    warm = run_eval(model, cases, config=config, store=store)
    assert warm.stats["computed"] == 0
    assert warm.to_json() == cold.to_json()
    print(f"warm: {warm.stats['memo_hits']} outcomes from the store, "
          f"report byte-identical ✓")

    # 5. Changing only the k-vector is pure aggregation — still zero
    #    recomputes, because stored outcomes are k-independent.
    rescored = run_eval(model, cases,
                        config=EvalConfig(n_samples=40, seed=43,
                                          k_values=(1, 2, 5, 10)),
                        store=store)
    assert rescored.stats["computed"] == 0
    print(f"k-vector change: pass@10={rescored.pass_at(10):.3f}, "
          f"0 cases rescored")

    # 6. The same workload over the wire.  The server's service points
    #    at the same store, so the eval is served from the memo — and
    #    the wire body is the in-process serialization, byte for byte.
    service = AssertService(ServeConfig(store=StoreConfig(path=store_dir)))
    service.register_model("GPT-4", model)
    server = AssertHttpServer(service, HttpConfig(port=0))
    server.start()
    try:
        client = AssertClient.for_server(server)
        wired = client.eval(EvalRequest("GPT-4", cases, config=config))
        assert wired.to_json() == cold.to_json()
        stats = service.stats().to_dict()
        print(f"POST /v1/eval: {stats['eval_memo_hits']} memo hits, "
              f"wire bytes == in-process bytes ✓")
    finally:
        server.close()


if __name__ == "__main__":
    main()
