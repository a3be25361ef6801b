"""Model evaluation over SVA-Eval.

``run_eval`` runs any model (AssertSolver checkpoints or baseline
surrogates) over a case list under an :class:`EvalConfig` and produces
an :class:`EvalReport` holding everything the paper's tables and figures
need: per-case correct counts, aggregate pass@k for the config's
k-vector, per-origin splits, per-bucket splits and the c-histogram.  The
report is the only aggregation: the table and figure renderers read it.

Correctness follows the paper: the answer's buggy line must match the
golden buggy line and the suggested fix must match the golden fixed line
(whitespace-normalised).  ``EvalConfig.semantic_check`` additionally
accepts a textually-wrong repair when patching it into the design passes
the bounded checker — an extension the paper does not do (it compares
text), available for the ablation benches.

Each case samples from an RNG derived per ``(seed, "eval", case_id)``
instead of one stream threaded across cases, so ``run_eval`` can fan
case chunks out over an :class:`repro.engine.ExecutionEngine` and still
return exactly the serial outcomes.

With a ``store``, per-case outcomes are memoized in the ``eval/v1``
namespace on ``(case_digest, model_digest, n, seed,
config.semantic_digest())`` — the eval twin of the datagen pipeline's
whole-stage memoization.  Outcomes are pure functions of that key, so a
warm re-run against a populated :class:`DiskStore` recomputes only
new/changed cases and reproduces the cold report byte for byte.
"""

from __future__ import annotations

import hashlib
import io
import pickle
import random
from collections import OrderedDict
from typing import Iterable, List, Optional, Tuple

from repro.datagen.records import SvaEvalCase
from repro.engine import ExecutionEngine, derive_rng
from repro.eval.cases import case_digest
from repro.eval.config import EvalConfig
from repro.eval.report import EvalReport
from repro.model.assertsolver import Problem, SolverResponse
from repro.store.base import NS_EVAL, content_key


def _normalize(text: str) -> str:
    return " ".join(text.split())


def is_correct(response: SolverResponse, case: SvaEvalCase) -> bool:
    """Paper semantics: buggy-line number and fixed-line text must match."""
    record = case.record
    return (response.line == record.line
            and _normalize(response.fix) == _normalize(record.fixed_line))


def semantic_check(response: SolverResponse, case: SvaEvalCase,
                   bmc=None) -> bool:
    """Extension: does the patched design actually pass the bound?"""
    from repro.sva.bmc import BmcConfig, bounded_check
    from repro.verilog.compile import compile_source

    lines = case.entry.buggy_source_with_sva.splitlines()
    if not 1 <= response.line <= len(lines):
        return False
    indent = lines[response.line - 1][:len(lines[response.line - 1])
                                      - len(lines[response.line - 1].lstrip())]
    lines[response.line - 1] = indent + response.fix.strip()
    patched = "\n".join(lines) + "\n"
    result = compile_source(patched)
    if not result.ok:
        return False
    check = bounded_check(result.design, bmc or BmcConfig(depth=10,
                                                          random_trials=24))
    return check.passed_bound


class CaseOutcome:
    __slots__ = ("case", "n", "c")

    def __init__(self, case: SvaEvalCase, n: int, c: int):
        self.case = case
        self.n = n
        self.c = c


def generate_for_case(model, case: SvaEvalCase, n: int,
                      rng: random.Random) -> List[SolverResponse]:
    """Dispatch: baseline surrogates take the case, trained models take the
    question-only Problem."""
    if hasattr(model, "generate_case"):
        return model.generate_case(case, n=n)
    return model.generate(Problem.from_entry(case.entry), n=n, rng=rng)


def _case_rng(seed: int, case: SvaEvalCase) -> random.Random:
    """Independent per-case stream: scheduling cannot leak into results."""
    return derive_rng(seed, "eval", case.case_id)


def _score_case(model, case: SvaEvalCase, n: int, seed: int,
                check: bool = False) -> Tuple[int, int]:
    responses = generate_for_case(model, case, n, _case_rng(seed, case))
    c = 0
    for response in responses:
        if is_correct(response, case):
            c += 1
        elif check and semantic_check(response, case):
            c += 1
    return len(responses), c


# -- model transport ----------------------------------------------------------
#
# A process-pool run used to pickle the model object graph once per chunk
# (workers * 4 times per model); for large checkpoints the serialization
# dominated the fan-out cost.  Now the model is pickled exactly once per
# run_eval call and the same immutable blob rides along with every
# chunk (re-sending bytes is a buffer copy, not a graph walk); each
# worker deserializes it once, verifies the content digest, and memoizes
# it, so later chunks on the same worker skip deserialization too.

_WORKER_MODEL_CACHE: "OrderedDict[str, object]" = OrderedDict()
_WORKER_MODEL_CACHE_MAX = 4


def _model_payload(model) -> Tuple[bytes, str]:
    """Serialize once; the digest doubles as transfer checksum and
    worker-side cache key."""
    blob = pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)
    return blob, hashlib.sha256(blob).hexdigest()


def _resolve_model(blob: bytes, digest: str):
    """The worker's model: cached by digest, else deserialized once."""
    cached = _WORKER_MODEL_CACHE.get(digest)
    if cached is not None:
        _WORKER_MODEL_CACHE.move_to_end(digest)
        return cached
    if hashlib.sha256(blob).hexdigest() != digest:
        raise RuntimeError("model blob fingerprint changed in transit")
    resolved = pickle.loads(blob)
    _WORKER_MODEL_CACHE[digest] = resolved
    while len(_WORKER_MODEL_CACHE) > _WORKER_MODEL_CACHE_MAX:
        _WORKER_MODEL_CACHE.popitem(last=False)
    return resolved


def _eval_chunk(payload) -> List[Tuple[int, int]]:
    """Worker task: score a contiguous chunk of cases with one model copy."""
    blob, digest, chunk, n, seed, check = payload
    model = _resolve_model(blob, digest)
    return [_score_case(model, case, n, seed, check) for case in chunk]


def model_digest(model) -> str:
    """The model's content fingerprint — half of the per-case memo key.

    A digest of the model's pickle written without the pickler's memo:
    every object is serialized by content each time it is reached, so
    the bytes do not depend on which attributes happen to share one
    object (a string shared with the class name, say), and a model
    loaded in a worker or from disk keeps its digest.  Any weight,
    profile, or seed change reads as a different model, invalidating
    exactly its own stored outcomes.  (The model graph holds no cycles,
    which a memo-free pickle could not write.)"""
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.fast = True
    pickler.dump(model)
    return hashlib.sha256(buffer.getvalue()).hexdigest()


def eval_memo_key(case_dig: str, model_dig: str, config: EvalConfig,
                  config_digest: Optional[str] = None) -> str:
    """The ``eval/v1`` store key: ``(case, model, n, seed, config)``.

    The eval twin of :func:`repro.store.unit_memo_key`; pass
    ``config_digest`` to amortize :meth:`EvalConfig.semantic_digest`
    over a case list."""
    return content_key("eval-memo", case_dig, model_dig,
                       str(config.n_samples), repr(config.seed),
                       config_digest or config.semantic_digest())


def _score_cases(model, cases: List[SvaEvalCase], config: EvalConfig,
                 engine: Optional[ExecutionEngine]) -> List[Tuple[int, int]]:
    """Score ``cases`` serially or chunked over ``engine``; per-case
    derived RNGs keep the outcomes byte-identical either way."""
    n, seed, check = config.n_samples, config.seed, config.semantic_check
    if engine is not None and engine.parallel and len(cases) > 1:
        chunk_size = max(1, (len(cases) + engine.n_workers * 4 - 1)
                         // (engine.n_workers * 4))
        # One serialization per run, shared by every chunk; workers
        # deserialize and memoize by digest.
        blob, digest = _model_payload(model)
        payloads = [(blob, digest, cases[i:i + chunk_size],
                     n, seed, check)
                    for i in range(0, len(cases), chunk_size)]
        # engine.map preserves input order, so the contiguous chunks
        # flatten straight back into case order.
        scores = [score for chunk in
                  engine.map(_eval_chunk, payloads, stage="evaluate")
                  for score in chunk]
        _, digest_after = _model_payload(model)
        if digest_after != digest:
            raise RuntimeError(
                "model fingerprint changed across the evaluation: "
                "evaluation must not mutate the model")
        return scores
    return [_score_case(model, case, n, seed, check) for case in cases]


def run_eval(model, cases: Iterable[SvaEvalCase],
             config: Optional[EvalConfig] = None,
             engine: Optional[ExecutionEngine] = None,
             store=None) -> EvalReport:
    """Evaluate ``model`` over ``cases`` under ``config``.

    With a ``store`` (any :class:`repro.store.ArtifactStore`), per-case
    ``(n, c)`` outcomes are memoized on ``(case_digest, model_digest,
    n, seed, config.semantic_digest())`` in the ``eval/v1`` namespace:
    only cases with no stored outcome are computed (chunked over
    ``engine`` when one is given), and fresh outcomes are written back.
    The returned :class:`EvalReport` is byte-deterministic — cold and
    warm runs serialize identically; ``report.stats`` carries the
    volatile memo counters (``cases`` / ``memo_hits`` / ``computed``)
    outside the canonical payload.
    """
    config = config or EvalConfig()
    config.validate()
    cases = list(cases)
    scores: List[Optional[Tuple[int, int]]] = [None] * len(cases)
    keys: List[Optional[str]] = [None] * len(cases)
    digest = ""
    hits = 0
    if store is not None:
        digest = model_digest(model)
        config_digest = config.semantic_digest()
        for i, case in enumerate(cases):
            keys[i] = eval_memo_key(case_digest(case), digest, config,
                                    config_digest)
            stored = store.get(NS_EVAL, keys[i])
            # Shape-check replayed artifacts: a corrupted or foreign
            # entry counts as a miss, never a crash (store contract).
            if isinstance(stored, tuple) and len(stored) == 2 \
                    and all(isinstance(v, int) for v in stored):
                scores[i] = stored
                hits += 1
    miss_idx = [i for i in range(len(cases)) if scores[i] is None]
    computed = _score_cases(model, [cases[i] for i in miss_idx],
                            config, engine)
    for i, score in zip(miss_idx, computed):
        scores[i] = tuple(score)
        if store is not None:
            store.put(NS_EVAL, keys[i], tuple(score))
    outcomes = [CaseOutcome(case, total, c)
                for case, (total, c) in zip(cases, scores)]
    name = getattr(model, "name", type(model).__name__)
    report = EvalReport.from_result(name, outcomes, config)
    report.model_digest = digest
    report.stats = {"cases": len(cases), "memo_hits": hits,
                    "computed": len(miss_idx)}
    return report
