"""Evaluation: the SVA-Eval benchmark, pass@k, bucketed analyses and the
experiment runners that regenerate every table and figure of the paper."""

from repro.eval.passk import aggregate_pass_at_k, pass_at_k

_LAZY = {
    "SvaEvalBenchmark": "repro.eval.benchmark",
    "build_benchmark": "repro.eval.benchmark",
    "EvalConfig": "repro.eval.config",
    "EvalReport": "repro.eval.report",
    "case_digest": "repro.eval.cases",
    "cases_from_json": "repro.eval.cases",
    "cases_to_json": "repro.eval.cases",
    "eval_memo_key": "repro.eval.runner",
    "is_correct": "repro.eval.runner",
    "model_digest": "repro.eval.runner",
    "run_eval": "repro.eval.runner",
}
__all__ = ["pass_at_k", "aggregate_pass_at_k", *_LAZY]


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.eval' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)