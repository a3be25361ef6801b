"""Outside-in layer tracing for the benchmark's traced runs.

The tracer wraps public functions of the program's layers from the
benchmark's side: it replaces the function object in its defining module
*and* in every other loaded ``repro`` module that bound the same object
with ``from module import name`` (``datagen/stage2.py`` calls its own
``bounded_check`` binding, so patching only ``repro.sva.bmc`` would miss
those calls).  Methods are patched on their class.  ``uninstall()`` puts
every original back, including in modules imported after ``install()``
that bound a wrapper.

Each thread keeps its own span stack, because batcher, HTTP handler and
client threads all run wrapped functions at once.  A layer's self time
is its wall time minus the wall time of wrapped calls made inside it on
the same thread.  Wrappers only observe: arguments and return values
pass through untouched.
"""

from __future__ import annotations

import sys
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: (layer name, defining module, attribute path, post-call hook name).
#: Names follow ``<module>.<function>``; the module part is the
#: program's package under ``src/repro``.
LAYERS: Tuple[Tuple[str, str, str, Optional[str]], ...] = (
    ("datagen.run_pipeline", "repro.datagen.pipeline", "run_pipeline", None),
    ("datagen.split", "repro.datagen.split", "split_by_module_name", None),
    ("datagen.stage1_unit", "repro.datagen.stage1", "stage1_unit", None),
    ("datagen.stage2_unit", "repro.datagen.stage2", "stage2_unit", None),
    ("datagen.stage3_unit", "repro.datagen.stage3", "stage3_unit", None),
    ("datagen.validate_svas", "repro.datagen.stage2", "validate_svas", None),
    ("corpus.corpus_unit", "repro.corpus.generator", "corpus_unit", None),
    ("verilog.compile_source", "repro.verilog.compile", "compile_source",
     None),
    ("verilog.parse_module", "repro.verilog.parser", "parse_module", None),
    ("sva.compile_with_sva", "repro.sva.insert", "compile_with_sva", None),
    ("sva.bounded_check", "repro.sva.bmc", "bounded_check", "bmc_single"),
    ("sva.bounded_check_batch", "repro.sva.bmc", "bounded_check_batch",
     "bmc_batch"),
    ("sva.mine_invariant_hints", "repro.sva.mine", "mine_invariant_hints",
     None),
    ("bugs.inject_many", "repro.bugs.injector", "BugInjector.inject_many",
     None),
    ("bugs.classify_relation", "repro.bugs.classify", "classify_relation",
     None),
    ("oracles.propose", "repro.oracles.sva", "SvaOracle.propose", None),
    ("engine.map", "repro.engine.executor", "ExecutionEngine.map", "map"),
    ("serve.solve_task", "repro.serve.service", "solve_task", None),
    ("serve.codecs.request_from_json", "repro.serve.codecs",
     "request_from_json", None),
    ("serve.codecs.response_to_json", "repro.serve.service",
     "SolveResponse.to_json", None),
    ("serve.codecs.response_from_json", "repro.serve.codecs",
     "response_from_json", None),
    ("model.enumerate_repairs", "repro.model.candidates", "enumerate_repairs",
     "candidates"),
    ("model.case_context", "repro.model.features", "CaseContext.__init__",
     None),
    ("model.features_matrix", "repro.model.features", "CaseContext.matrix",
     None),
    ("model.generate", "repro.model.assertsolver", "AssertSolver.generate",
     None),
    ("eval.run_eval", "repro.eval.runner", "run_eval", None),
    ("eval.report", "repro.eval.report", "EvalReport.from_result", None),
    ("model.pretrain", "repro.model.assertsolver", "AssertSolver.pretrain",
     None),
    ("model.train_sft", "repro.model.assertsolver", "AssertSolver.train_sft",
     None),
    ("model.train_dpo", "repro.model.assertsolver", "AssertSolver.train_dpo",
     None),
)


def _program_modules() -> list:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


class LayerStats:
    """Totals for one layer, summed over every thread."""

    __slots__ = ("calls", "total_s", "self_s", "counts", "samples")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counts: Dict[str, int] = {}
        self.samples: List[Tuple[float, int]] = []

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount


class Tracer:
    """Install wrappers around :data:`LAYERS`, collect per-layer stats."""

    def __init__(self):
        self.stats: Dict[str, LayerStats] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []
        self._originals: Dict[int, object] = {}  # id(wrapper) -> original

    # -- patching ------------------------------------------------------------

    def install(self) -> "Tracer":
        for layer, module_name, path, hook in LAYERS:
            __import__(module_name)
            owner = sys.modules[module_name]
            *class_path, attr = path.split(".")
            for part in class_path:
                owner = getattr(owner, part)
            self.stats[layer] = LayerStats()
            post = getattr(self, f"_post_{hook}") if hook else None
            if class_path:
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(layer, raw.__func__, post))
                else:
                    wrapped = self._wrap(layer, raw, post)
                self._patch(owner, attr, raw, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(layer, original, post)
            self._originals[id(wrapped)] = original
            for module in _program_modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapped)
        return self

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        # A module imported while the wrappers were in place bound them.
        for module in _program_modules():
            for key, value in list(vars(module).items()):
                original = self._originals.get(id(value))
                if original is not None and getattr(
                        value, "__wrapped__", None) is original:
                    setattr(module, key, original)

    def reset(self) -> None:
        """Zero every layer's totals (the wrappers stay installed)."""
        with self._lock:
            for stats in self.stats.values():
                stats.calls = 0
                stats.total_s = stats.self_s = 0.0
                stats.counts.clear()
                stats.samples.clear()

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def parent_layer(self) -> Optional[str]:
        """The innermost wrapped layer open on this thread, if any."""
        stack = self._stack()
        return stack[-1][0] if stack else None

    def _wrap(self, layer: str, fn: Callable,
              post: Optional[Callable]) -> Callable:
        stats = self.stats[layer]
        lock = self._lock
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            # Frame: [layer, start, wall time of wrapped children].
            frame = [layer, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                elapsed = perf_counter() - frame[1]
                if stack:
                    stack[-1][2] += elapsed
                with lock:
                    stats.calls += 1
                    stats.total_s += elapsed
                    stats.self_s += elapsed - frame[2]
            if post is not None:
                with lock:
                    post(stats, args, result, elapsed)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- post-call counters ----------------------------------------------------

    def _post_bmc_single(self, stats: LayerStats, args, result,
                         elapsed: float) -> None:
        stats.count("stimuli", result.stimuli_tried)
        # Golden-design validation also calls bounded_check (the
        # one-proposal path of validate_svas); only checks made outside
        # it are mutant-kill checks.
        if self.parent_layer() != "datagen.validate_svas":
            stats.count("mutant_checks")
            if result.failed:
                stats.count("kills")

    @staticmethod
    def _post_bmc_batch(stats: LayerStats, args, result,
                        elapsed: float) -> None:
        stats.count("stimuli", result.stimuli_tried)

    @staticmethod
    def _post_map(stats: LayerStats, args, result, elapsed: float) -> None:
        # (wall, units) per map: what each waiter of a served batch sat
        # through, for the latency accounting of the solve workloads.
        stats.samples.append((elapsed, len(result)))

    @staticmethod
    def _post_candidates(stats: LayerStats, args, result,
                         elapsed: float) -> None:
        stats.count("candidates", len(result))

    # -- reporting -------------------------------------------------------------

    def snapshot(self) -> Dict[str, dict]:
        with self._lock:
            return {layer: {"calls": s.calls, "total_s": s.total_s,
                            "self_s": s.self_s, "counts": dict(s.counts),
                            "samples": list(s.samples)}
                    for layer, s in self.stats.items()}
