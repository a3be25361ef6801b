"""AssertService: async request serving for assertion generation.

The batch pipeline answers "regenerate the whole paper"; this module
answers "here is one design, give me validated SVAs *now*" — the
request/response layer the ROADMAP's serving goal needs:

- :class:`SolveRequest` carries raw design source plus
  :class:`SolveOptions` (hint list, mining, hallucination rate, BMC
  budget).  Requests are content-addressed: every RNG stream the solve
  consumes derives from the request's SHA-256 key, so identical requests
  produce byte-identical responses no matter when, where, or in which
  batch they run.
- :meth:`AssertService.submit` first probes the
  :class:`repro.serve.cache.ResultCache` (store tier included): a hit
  resolves the returned ``Future`` at once, with no queue slot and no
  batch window.  A miss enqueues onto a *bounded* queue; a full queue
  raises :class:`ServiceOverloaded` immediately (backpressure — the
  caller sheds load or retries) instead of letting latency grow without
  bound.
- A :class:`repro.serve.batcher.MicroBatcher` consumer coalesces
  the queued misses; each flush dedups them by content key, re-checks
  the cache's memory tier for keys an earlier batch filled meanwhile,
  and fans the remaining unique work units out over one
  :meth:`repro.engine.ExecutionEngine.map` call — workers share the
  process-wide compile cache, and each unit scores all of a design's
  proposals with one ``bounded_check_batch``-backed validation pass.
- The service's registry (``/metricsz`` through
  :class:`repro.serve.AssertHttpServer`) surfaces every counter an
  operator needs: queue/backpressure, batch shapes and flush reasons,
  cache and store hits, dedup wins, errors; :class:`ServiceStats` is the
  same counters as one typed in-process snapshot.

Malformed Verilog never crashes a worker: a request that does not
compile resolves to a structured ``compile_error`` response carrying the
compiler's diagnostics.
"""

from __future__ import annotations

import heapq
import itertools
import json
import queue
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, field, fields
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple, Union

from repro import cov, knobs
from repro.corpus.meta import DesignSeed, SvaHint, TemplateMeta
from repro.engine import BACKENDS, ExecutionEngine, derive_rng
from repro.engine import metrics
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.eval.cases import cases_to_json
from repro.eval.config import EvalConfig
from repro.knobs import EXECUTION, SEMANTIC, configclass, knob
from repro.serve.batcher import FLUSH_REASONS, BatcherStats, MicroBatcher
from repro.sim.compiled import SIM_MODES
from repro.serve.cache import ResultCache, content_key
from repro.store import StoreConfig
from repro.sva.bmc import BmcConfig
from repro.sva.mine import mine_invariant_hints
from repro.verilog.compile import compile_source

#: A hint as it travels inside a request: hashable, picklable, canonical.
#: ``(name, consequent, antecedent, delay, message)`` mirrors
#: :class:`SvaHint`'s constructor.
HintTuple = Tuple[str, str, Optional[str], int, str]


class ServiceOverloaded(RuntimeError):
    """The bounded request queue is full; retry later or shed load."""


class ServiceClosed(RuntimeError):
    """submit() after close()."""


def hint_to_tuple(hint: SvaHint) -> HintTuple:
    return (hint.name, hint.consequent, hint.antecedent, hint.delay,
            hint.message)


def hint_from_tuple(data: Sequence) -> SvaHint:
    name, consequent, antecedent, delay, message = data
    return SvaHint(name, consequent, antecedent=antecedent, delay=int(delay),
                   message=message)


@configclass(frozen=True, eager=False)
class SolveOptions:
    """Per-request knobs; the ``semantic`` ones form the content key.
    Validated where a request is accepted (``submit``, the wire parser),
    not at construction, so a client's bad options get the server's 400.

    ``hints`` feeds the oracle known-plausible properties (the loadgen
    fills it from corpus template metadata, standing in for an upstream
    LLM's raw proposals); with no hints and ``mine_hints=True`` the
    service mines candidates from the design structure instead.  Either
    way every proposal is re-validated with the bounded checker before it
    is served.
    """

    hints: Tuple[HintTuple, ...] = knob((), kind=(tuple, list),
                                        role=SEMANTIC)
    mine_hints: bool = knob(True, kind=bool, role=SEMANTIC)
    #: The ``le=`` bounds on the solve budget are admission bounds: a
    #: request asking for more work than any real use (8 proposals,
    #: depth 12 and 48 trials at most in this repository) is refused
    #: like a mistyped one, instead of pinning a worker.
    max_proposals: int = knob(8, kind=int, ge=1, le=64, role=SEMANTIC)
    hallucination_rate: float = knob(0.0, kind=float, ge=0, le=1,
                                     role=SEMANTIC)
    bmc_depth: int = knob(10, kind=int, ge=1, le=64, role=SEMANTIC)
    bmc_random_trials: int = knob(24, kind=int, ge=0, le=512,
                                  role=SEMANTIC)
    #: Wall-clock budget from ``submit()``; a request still unserved when
    #: it expires — waiting in the queue or sitting in a batch — resolves
    #: to a structured ``timeout`` response instead of blocking
    #: ``result()`` forever.  A QoS knob like ``request_id``, NOT part of
    #: the content key: differently-deadlined repeats still share cache
    #: entries and batch dedup, and timeout responses are never cached.
    deadline_ms: Optional[float] = knob(None, kind=float, gt=0,
                                        optional=True, role=EXECUTION)

    @classmethod
    def for_design(cls, design: DesignSeed, **overrides) -> "SolveOptions":
        """Options carrying the design's template hints."""
        hints = tuple(hint_to_tuple(h) for h in design.meta.sva_hints)
        return cls(hints=hints, **overrides)

    def _check(self) -> None:
        for hint in self.hints:
            try:
                parts = tuple(hint)
            except TypeError:
                parts = ()
            if len(parts) != 5:
                raise ValueError(f"hint tuples are (name, consequent, "
                                 f"antecedent, delay, message), got {hint!r}")
            name, consequent, antecedent, delay, message = parts
            if not (isinstance(name, str) and isinstance(consequent, str)
                    and isinstance(message, str)
                    and (antecedent is None or isinstance(antecedent, str))
                    and isinstance(delay, int)
                    and not isinstance(delay, bool)):
                raise ValueError(f"malformed hint tuple: {hint!r}")

    def canonical(self) -> str:
        """Stable text rendering of the semantic knobs, hashed into the
        request key (``deadline_ms`` changes when a response is worth
        delivering, never what the response is)."""
        return knobs.canonical(self)

    def hint_objects(self) -> List[SvaHint]:
        return [hint_from_tuple(h) for h in self.hints]


@dataclass(frozen=True)
class SolveRequest:
    """One unit of service traffic.

    ``request_id`` is a client-side tag for tracing; it is *not* part of
    the content key, so differently-tagged repeats still share cache
    entries and batch dedup.

    Each request type tells the service what differs by kind (see
    :class:`EvalRequest`): ``cacheable``, the deadline, and :meth:`reply`
    for the lifecycle's own answers (timeout, cancelled).
    """

    #: Responses are pure functions of content: cached == recomputed.
    cacheable: ClassVar[bool] = True

    design_source: str
    options: SolveOptions = field(default_factory=SolveOptions)
    request_id: str = ""

    def cache_key(self) -> str:
        return content_key(self.design_source, self.options.canonical())

    def validate(self) -> None:
        self.options.validate()

    @property
    def deadline_ms(self) -> Optional[float]:
        return self.options.deadline_ms

    @staticmethod
    def reply(status: str, key: str, error: str) -> "SolveResponse":
        return SolveResponse(status, key, error=error)


class ScoredProposal:
    """One validated assertion, ready to insert into the design."""

    __slots__ = ("name", "property_text", "assertion_text", "score", "origin")

    def __init__(self, name: str, property_text: str, assertion_text: str,
                 score: float, origin: str):
        self.name = name
        self.property_text = property_text
        self.assertion_text = assertion_text
        self.score = score
        self.origin = origin  # "hint" | "mined"

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "property": self.property_text,
                "assertion": self.assertion_text, "score": self.score,
                "origin": self.origin}

    def __repr__(self) -> str:  # pragma: no cover
        return f"ScoredProposal({self.name}, score={self.score})"


class SolveResponse:
    """The deterministic result of one solve.

    ``status`` is ``"ok"``, ``"compile_error"``, ``"timeout"``, or
    ``"cancelled"``: a compile error carries the compiler's diagnostics
    in ``error`` (structured failure, not a crashed worker); a timeout
    means the request exceeded its ``SolveOptions.deadline_ms`` before
    being served; cancelled means the client abandoned it via
    :meth:`AssertService.cancel`.  Only the two deterministic statuses
    (``ok`` / ``compile_error``) are ever cached.
    ``request_key`` echoes the request's content
    key (design source + canonical options) so clients can correlate
    responses with submissions.  Deliberately carries no timing or host
    fields: identical requests must serialize to identical bytes
    (:meth:`to_json`), which is what makes result caching sound.

    ``coverage`` is telemetry, present only when the serving deployment
    runs with ``ServeConfig.coverage`` on: the coverage report the
    validating bounded checks produced, plus vacuity-penalized quality
    scores per served proposal.  It is a deterministic function of
    request content *given* the knob, and :meth:`to_json` omits the key
    entirely when it is absent — coverage-off deployments serialize to
    exactly the pre-coverage bytes.
    """

    __slots__ = ("status", "request_key", "proposals", "rejected", "error",
                 "coverage")

    def __init__(self, status: str, request_key: str,
                 proposals: Tuple[ScoredProposal, ...] = (),
                 rejected: int = 0, error: str = "",
                 coverage: Optional[Dict[str, object]] = None):
        self.status = status
        self.request_key = request_key
        self.proposals = proposals
        self.rejected = rejected
        self.error = error
        self.coverage = coverage

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_json(self) -> str:
        payload = {
            "status": self.status,
            "request_key": self.request_key,
            "proposals": [p.to_dict() for p in self.proposals],
            "rejected": self.rejected,
            "error": self.error,
        }
        if self.coverage is not None:
            payload["coverage"] = self.coverage
        return json.dumps(payload, sort_keys=True)

    def __repr__(self) -> str:  # pragma: no cover
        if not self.ok:
            return f"SolveResponse({self.status})"
        return (f"SolveResponse(ok, {len(self.proposals)} proposals, "
                f"{self.rejected} rejected)")


class EvalRequest:
    """One evaluation job: a registered model name over submitted cases.

    The eval twin of :class:`SolveRequest` — same lifecycle (bounded
    queue, deadline timer, cancellation by ``request_id``), different
    payload.  ``model`` names a model previously installed with
    :meth:`AssertService.register_model`; the cases travel with the
    request, so any backend holding the model can serve it.

    Content-addressed like solves: :meth:`cache_key` hashes the model
    name, the canonical case rendering, and ``EvalConfig.canonical()``
    (which excludes ``deadline_ms``), so the fleet router sends repeats
    of one evaluation to the same backend — where the per-case memo in
    the artifact store makes the repeat cheap.
    """

    __slots__ = ("model", "cases", "config", "request_id", "_cases_json")

    #: Deliberately not result-cached: the response depends on which
    #: object is registered under the model *name*, which a shared store
    #: cannot see, whereas the per-case memo keys on the model's digest.
    cacheable: ClassVar[bool] = False

    def __init__(self, model: str, cases,
                 config: Optional[EvalConfig] = None, request_id: str = ""):
        if not isinstance(model, str) or not model:
            raise ValueError(
                "model must be a non-empty registered model name")
        self.model = model
        self.cases = list(cases)
        if not self.cases:
            raise ValueError("cases must be a non-empty list")
        self.config = config or EvalConfig()
        self.request_id = request_id
        self._cases_json: Optional[str] = None

    def cases_json(self) -> str:
        """Canonical case rendering (computed once, reused by the key)."""
        if self._cases_json is None:
            self._cases_json = cases_to_json(self.cases)
        return self._cases_json

    def cache_key(self) -> str:
        return content_key("eval", self.model, self.cases_json(),
                           self.config.canonical())

    def validate(self) -> None:
        self.config.validate()

    @property
    def deadline_ms(self) -> Optional[float]:
        return self.config.deadline_ms

    @staticmethod
    def reply(status: str, key: str, error: str) -> "EvalResponse":
        return EvalResponse(status, key, error=error)


class EvalResponse:
    """The resolution of one :class:`EvalRequest`.

    ``status`` is ``"ok"`` (``report`` carries the
    :class:`repro.eval.EvalReport`), ``"unknown_model"`` (no registered
    model under that name), ``"timeout"``, or ``"cancelled"`` — the last
    two with the same semantics as their solve twins.
    """

    __slots__ = ("status", "request_key", "report", "error")

    def __init__(self, status: str, request_key: str, report=None,
                 error: str = ""):
        self.status = status
        self.request_key = request_key
        self.report = report
        self.error = error

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def __repr__(self) -> str:  # pragma: no cover
        if not self.ok:
            return f"EvalResponse({self.status})"
        return f"EvalResponse(ok, {self.report!r})"


# -- the per-request work unit (module-level: picklable for process pools) ----


@dataclass(frozen=True)
class SolveTask:
    """Everything one worker needs to solve one unique request.

    ``sim_mode`` is deployment configuration, not request content: it
    selects the simulation tier (see :mod:`repro.sim.compiled`) and must
    never change the response, so it stays out of ``key`` — a cached
    response is valid under either mode.

    ``coverage`` is the same kind of knob: when on, the worker attaches
    the coverage report its validating checks already produced (no extra
    simulation) to the response.  Both tiers emit byte-identical
    reports, so it stays out of ``key`` too.

    ``trace_parent`` is the first waiter's inflight span context (a
    picklable ``(trace_id, span_id)`` tuple), carried so the worker's
    ``solve`` span lands in the request's trace.  Purely volatile: it
    never reaches ``key`` or the response, which stays a function of
    content alone.
    """

    key: str
    design_source: str
    options: SolveOptions
    seed: int
    sim_mode: str = "compiled"
    coverage: bool = False
    trace_parent: Optional[Tuple[str, str]] = None


def _score_hint(hint: SvaHint, design_signals: frozenset) -> float:
    """Deterministic quality proxy: signal coverage + temporal depth."""
    covered = len(set(hint.signals()) & design_signals)
    coverage = covered / max(1, len(design_signals))
    temporal = 0.2 if hint.antecedent is not None else 0.0
    return round(min(1.0, 0.2 + 0.6 * coverage + temporal), 4)


def _vacuity_scores(scored: "List[ScoredProposal]",
                    report: Dict[str, object]) -> Dict[str, float]:
    """Discount each proposal's structural score by how often its passes
    were vacuous during validation: a score of 0 means every observed
    pass held only because the antecedent never fired."""
    quality = report.get("assertions", {})
    out: Dict[str, float] = {}
    for proposal in scored:
        counters = quality.get(f"{proposal.name}_assertion")
        if not counters:
            out[proposal.name] = proposal.score
            continue
        real = counters.get("real_passes", 0)
        observed = real + counters.get("vacuous", 0)
        factor = (real / observed) if observed else 0.0
        out[proposal.name] = round(proposal.score * factor, 4)
    return out


def solve_task(task: SolveTask) -> SolveResponse:
    """Compile, propose, validate, score — one request end to end.

    Every random draw derives from ``(seed, "serve", key, ...)``, so the
    response is a pure function of the task (``trace_parent`` included —
    tracing observes, never steers): reorderable across batches, workers
    and backends, and safely cacheable by content key.
    """
    with obs_trace.span("solve", parent=task.trace_parent,
                        attrs={"key": task.key[:12]}):
        return _solve_task_inner(task)


def _solve_task_inner(task: SolveTask) -> SolveResponse:
    from repro.datagen.stage2 import validate_svas
    from repro.oracles.sva import SvaOracle

    options = task.options
    compiled = compile_source(task.design_source)
    if not compiled.ok:
        return SolveResponse("compile_error", task.key,
                             error=compiled.failure_summary())

    hints = options.hint_objects()
    origin = "hint"
    if not hints and options.mine_hints:
        hints = mine_invariant_hints(compiled.design,
                                     limit=options.max_proposals)
        origin = "mined"
    hints = hints[:options.max_proposals]
    if not hints:
        return SolveResponse("ok", task.key)

    seed_like = DesignSeed(
        "serve_design", task.design_source,
        TemplateMeta("serve", {}, "served design", [], hints))
    oracle = SvaOracle(derive_rng(task.seed, "serve", task.key, "oracle"),
                       hallucination_rate=options.hallucination_rate)
    proposals = oracle.propose(seed_like)
    bmc = BmcConfig(depth=options.bmc_depth,
                    random_trials=options.bmc_random_trials,
                    seed=task.seed, sim_mode=task.sim_mode,
                    coverage=task.coverage)
    coverage_out: Optional[dict] = {} if task.coverage else None
    valid, rejected = validate_svas(seed_like, proposals, bmc,
                                    coverage_out=coverage_out)

    design_signals = frozenset(compiled.design.symbols)
    scored = [ScoredProposal(p.name, p.property_text, p.assertion_text,
                             _score_hint(p.hint, design_signals), origin)
              for p in valid]
    scored.sort(key=lambda p: (-p.score, p.name))
    coverage = None
    if coverage_out:
        # The report the validating checks already produced — attaching
        # it costs no extra simulation, keeping the coverage knob off the
        # solve critical path.
        coverage = {"report": coverage_out,
                    "scores": _vacuity_scores(scored, coverage_out)}
    return SolveResponse("ok", task.key, proposals=tuple(scored),
                         rejected=rejected, coverage=coverage)


# -- configuration -------------------------------------------------------------


@configclass
class ServeConfig:
    """Capacity and execution knobs for one :class:`AssertService`.

    Its execution knobs (workers, backend, caches, batching) never
    change responses — only how fast they arrive — except ``coverage``,
    which adds a block to them.  The one ``semantic`` knob, ``seed``,
    roots every solve's RNG streams; its digest, and ``coverage`` when
    on, scope the result cache's store keys.  Compiles are always
    memoized by the process-wide cache of :mod:`repro.verilog.compile`
    (``CACHE_ENTRIES`` entries), which has no knob here.
    """

    n_workers: int = knob(1, kind=int, ge=1, role=EXECUTION)
    backend: str = knob("auto", kind=str, choices=BACKENDS, role=EXECUTION)
    max_queue: int = knob(256, kind=int, ge=1, role=EXECUTION)
    max_batch: int = knob(16, kind=int, ge=1, role=EXECUTION)
    #: Upper bound on a miss's wait in the batcher, not a fixed cost:
    #: a lone miss flushes at once (see :mod:`repro.serve.batcher`).
    batch_window_ms: float = knob(10.0, kind=float, ge=0, role=EXECUTION)
    result_cache: bool = knob(True, kind=bool, role=EXECUTION)
    cache_entries: int = knob(1024, kind=int, ge=1, role=EXECUTION)
    sim_mode: str = knob("compiled", kind=str, choices=SIM_MODES,
                         role=EXECUTION)
    #: Collect toggle/block coverage and assertion-quality counters from
    #: every solve's validating checks.  A pure execution knob like
    #: ``sim_mode``: it never changes which proposals are served, only
    #: whether responses additionally carry a ``coverage`` block (and
    #: the ``/covz`` buffer fills) — which is why, when on, it scopes the
    #: result cache's store keys.  Off by default so the serving hot
    #: path pays nothing for it.
    coverage: bool = knob(False, kind=bool, role=EXECUTION)
    seed: int = knob(2025, kind=int, role=SEMANTIC)
    #: Persistent tier under the result cache and, while the service's
    #: engine is open, under the compile cache of its process and
    #: workers.  Responses are byte-deterministic functions of request
    #: content and ``seed``, so a fleet of service instances pointed at
    #: one store directory safely pool responses: cached == recomputed.
    store: Optional[StoreConfig] = knob(None, kind=StoreConfig,
                                       optional=True, role=EXECUTION)

    def make_engine(self) -> ExecutionEngine:
        """Worker pool that holds ``store``'s compile tier open."""
        return ExecutionEngine(n_workers=self.n_workers,
                               backend=self.backend,
                               compile_store=self.store)


def _counter(help_: str):
    """A :class:`ServiceStats` field the service keeps itself: an
    ``AssertService._<name>`` attribute and a ``repro_service_<name>_total``
    series with this help text."""
    return field(default=0, metadata={"help": help_})


@dataclass
class ServiceStats:
    """One consistent snapshot of every service counter.

    ``queue_depth`` / ``inflight`` / ``queue_capacity`` are the
    saturation gauges: ``inflight`` counts requests accepted but not yet
    resolved (queued, batching, or computing), so operators and load
    tests can see pressure building *before* the bounded queue starts
    returning 429s.
    """

    submitted: int = _counter("Cumulative submitted requests.")
    completed: int = _counter("Cumulative completed requests.")
    rejected: int = _counter("Cumulative rejected requests.")
    errors: int = _counter("Cumulative errors requests.")
    solved: int = _counter("Cumulative solved requests.")
    deduped: int = _counter("Cumulative deduped requests.")
    compile_errors: int = _counter("Cumulative compile_errors requests.")
    timeouts: int = _counter("Cumulative timeouts requests.")
    cancelled: int = _counter("Cumulative cancelled requests.")
    evals: int = _counter("Cumulative evals requests.")
    eval_cases: int = _counter("Cumulative eval cases scored.")
    eval_memo_hits: int = _counter("Cumulative eval cases served from the "
                                   "store memo.")
    cache_hits: int = 0
    cache_misses: int = 0
    cache_store_hits: int = 0
    cache_entries: int = 0
    cache_hit_rate: float = 0.0
    store_entries: int = 0
    batches: int = 0
    batched_requests: int = 0
    mean_batch: float = 0.0
    max_batch: int = 0
    flush_size: int = 0      # one flush_<reason> per FLUSH_REASONS entry
    flush_timeout: int = 0
    flush_drain: int = 0
    flush_idle: int = 0
    queue_depth: int = 0
    queue_capacity: int = 0
    inflight: int = 0
    backend: str = "serial"
    n_workers: int = 1

    def to_dict(self) -> Dict[str, object]:
        return dict(self.__dict__)


#: ``{name: help}`` of the ``_counter`` fields: what ``stats()`` and the
#: metrics registry both walk.
SERVICE_COUNTERS: Dict[str, str] = {
    f.name: f.metadata["help"] for f in fields(ServiceStats)
    if "help" in f.metadata}


class _Pending:
    """One accepted request in flight.

    The queue item handed to the batcher, the deadline-timer entry, and
    the cancellation registry all reference the same ``_Pending``, so
    whichever path resolves it first (flush, timer, cancel, close)
    claims it atomically under the service lock — the losers see
    ``claimed`` and back off instead of double-resolving the future.
    """

    __slots__ = ("request", "future", "expiry", "key", "claimed",
                 "created", "span", "queue_span", "batch_span")

    def __init__(self, request: SolveRequest, future: "Future",
                 expiry: Optional[float]):
        self.request = request
        self.future = future
        self.expiry = expiry  # time.monotonic() deadline, or None
        self.key = request.cache_key()
        self.claimed = False
        # Observability only, all volatile: the submit timestamp feeds
        # the latency histograms whether or not tracing is enabled; the
        # spans (inflight / queue-wait / batch-wait) are None when it is
        # not.  Whichever resolver claims the request also closes them.
        self.created = time.perf_counter()
        self.span = None
        self.queue_span = None
        self.batch_span = None


class _DeadlineTimer:
    """Monotonic-deadline timer wheel for queued requests.

    One daemon thread sleeps until the earliest registered expiry and
    fires the service's expire callback on it — so a request whose
    ``deadline_ms`` lapses *while it still waits in the queue* (or rides
    a forming batch) resolves to a structured timeout the moment it
    expires, instead of at the next batch flush.  The thread starts
    lazily on the first deadline-carrying submit and wakes whenever a
    new earliest deadline arrives.
    """

    #: Compact once at least this many resolved entries linger (and they
    #: are the majority) — keeps discard() O(1) amortized.
    COMPACT_FLOOR = 64

    def __init__(self, expire):
        self._expire = expire  # callback(_Pending)
        self._heap: List[Tuple[float, int, _Pending]] = []
        self._counter = itertools.count()
        self._cond = threading.Condition()
        self._thread: Optional[threading.Thread] = None
        self._closed = False
        self._resolved = 0  # entries claimed elsewhere, still in the heap

    def add(self, pending: _Pending) -> None:
        with self._cond:
            if self._closed:
                return  # close() drains the queue and fails the future
            heapq.heappush(self._heap,
                           (pending.expiry, next(self._counter), pending))
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name="serve-deadline", daemon=True)
                self._thread.start()
            self._cond.notify()

    def _run(self) -> None:
        while True:
            pending = None
            with self._cond:
                while pending is None:
                    if self._closed:
                        return
                    if not self._heap:
                        self._cond.wait()
                        continue
                    if self._heap[0][2].claimed:
                        heapq.heappop(self._heap)  # resolved elsewhere
                        self._resolved = max(0, self._resolved - 1)
                        continue
                    delay = self._heap[0][0] - time.monotonic()
                    if delay <= 0:
                        pending = heapq.heappop(self._heap)[2]
                    else:
                        self._cond.wait(delay)
            # Fire outside the condition lock: the callback takes the
            # service lock and resolves a future.
            if not pending.claimed:
                self._expire(pending)

    def discard(self, pending: _Pending) -> None:
        """Note that ``pending`` resolved without expiring.

        Heaps cannot remove from the middle cheaply, so resolved entries
        are left in place and filtered out in bulk once they are the
        majority — otherwise a fleet of long-deadline requests that all
        resolve in milliseconds would pin their (request + response)
        payloads until each deadline lapsed."""
        with self._cond:
            self._resolved += 1
            if self._resolved >= self.COMPACT_FLOOR \
                    and self._resolved * 2 >= len(self._heap):
                self._heap = [entry for entry in self._heap
                              if not entry[2].claimed]
                heapq.heapify(self._heap)
                self._resolved = 0
                self._cond.notify()

    def close(self) -> None:
        with self._cond:
            self._closed = True
            thread, self._thread = self._thread, None
            self._heap.clear()
            self._cond.notify()
        if thread is not None:
            thread.join(timeout=5.0)


class AssertService:
    """Bounded-queue, micro-batched assertion service.

    Lifecycle::

        with AssertService(ServeConfig(n_workers=4)) as service:
            future = service.submit(SolveRequest(source))
            response = future.result()

    ``submit`` may be called before :meth:`start`; cache misses queue up
    (and exert backpressure) until the consumer starts draining, while
    cache hits resolve at submit either way.
    """

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        self.config.validate()
        self._queue: "queue.Queue" = queue.Queue(maxsize=self.config.max_queue)
        self._store = (self.config.store.make_store()
                       if self.config.store is not None else None)
        self._cache = (ResultCache(self.config.cache_entries,
                                   store=self._store,
                                   scope=self._cache_scope())
                       if self.config.result_cache else None)
        self._engine: Optional[ExecutionEngine] = None
        self._batcher: Optional[MicroBatcher] = None
        self._timer = _DeadlineTimer(self._expire_pending)
        # Per-service (not process-global) so co-located fleet backends
        # each retain only what they themselves solved — the router's
        # /covz merge then counts every report exactly once.
        self.cov_buffer = cov.CoverageBuffer()
        self._closed = False
        self._lock = threading.Lock()
        self._by_id: Dict[str, List[_Pending]] = {}
        for name in SERVICE_COUNTERS:
            setattr(self, f"_{name}", 0)
        self._models: Dict[str, Tuple[object, str]] = {}
        self.metrics = obs_metrics.MetricsRegistry()
        self._request_seconds = self.metrics.histogram(
            "repro_service_request_seconds",
            "Accepted-request latency, submit to resolution (any outcome).")
        self._queue_wait_seconds = self.metrics.histogram(
            "repro_service_queue_wait_seconds",
            "Time an accepted request waited before batch pickup "
            "(0 for a cache hit, resolved at submit).")
        self._register_metrics()

    def _cache_scope(self) -> str:
        """What a response depends on besides its request: the semantic
        ``seed`` and, when on, ``coverage`` — an execution knob that
        still adds the response's ``coverage`` block.  Folded in only
        when on, so coverage-off keys (and existing stores) keep their
        bytes."""
        scope = knobs.digest(self.config)
        return content_key(scope, "coverage") if self.config.coverage \
            else scope

    def _register_metrics(self) -> None:
        """Expose the existing counters through the metrics registry.

        Everything here is callback-backed — ``/metricsz`` reads the
        same bookkeeping ``stats()`` reports, so no number is maintained
        twice and registration costs the hot path nothing.
        """
        def reader(attr: str):
            return lambda: getattr(self, attr)

        for name, help_ in SERVICE_COUNTERS.items():
            self.metrics.counter_callback(
                f"repro_service_{name}_total", help_, reader(f"_{name}"))
        self.metrics.gauge_callback(
            "repro_service_queue_depth", "Requests waiting in the queue.",
            lambda: self._queue.qsize())
        self.metrics.gauge_callback(
            "repro_service_queue_capacity", "Bounded queue capacity.",
            lambda: self.config.max_queue)
        self.metrics.gauge_callback(
            "repro_service_inflight",
            "Accepted requests not yet resolved.",
            lambda: max(0, self._submitted - self._completed - self._errors))
        self.metrics.gauge_callback(
            "repro_service_workers", "Engine workers (1 = serial).",
            lambda: self._engine.n_workers if self._engine is not None
            else 1)
        if self._cache is not None:
            self.metrics.counter_callback(
                "repro_service_cache_hits_total", "Result-cache hits.",
                lambda: self._cache.hits)
            self.metrics.counter_callback(
                "repro_service_cache_misses_total", "Result-cache misses.",
                lambda: self._cache.misses)
            self.metrics.counter_callback(
                "repro_service_cache_store_hits_total",
                "Result-cache misses refilled from the store.",
                lambda: self._cache.store_hits)
            self.metrics.gauge_callback(
                "repro_service_cache_entries", "Live result-cache entries.",
                lambda: len(self._cache))
        if self._store is not None:
            self.metrics.provider(
                "repro_service_store",
                "The service's own artifact-store counter.",
                lambda: {key: value for key, value
                         in self._store.counters().items()
                         if type(value) is int})  # not TieredStore's dicts
            self.metrics.gauge_callback(
                "repro_service_store_entries", "Entries in the store.",
                lambda: len(self._store))

        self.metrics.counter_callback(
            "repro_service_batches_total", "Batches flushed.",
            lambda: self._batcher_stats().batches)
        self.metrics.counter_callback(
            "repro_service_batched_requests_total",
            "Requests carried by flushed batches.",
            lambda: self._batcher_stats().items)
        self.metrics.gauge_callback(
            "repro_service_batch_max", "Largest batch flushed so far.",
            lambda: self._batcher_stats().max_batch)
        self.metrics.callback_family(
            "repro_service_batch_flushes_total",
            "Batches flushed, by what closed them.", ("reason",),
            lambda: {(reason,): count for reason, count
                     in self._batcher_stats().flush_reasons.items()})

    def _batcher_stats(self) -> BatcherStats:
        batcher = self._batcher  # None until start()
        return batcher.stats if batcher is not None else BatcherStats()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "AssertService":
        if self._closed:
            raise ServiceClosed("service is closed")
        if self._batcher is not None:
            return self
        self._engine = self.config.make_engine()
        self._engine.warm()  # pool startup off the first request's latency
        self._batcher = MicroBatcher(
            self._queue, self._flush, max_batch=self.config.max_batch,
            window_s=self.config.batch_window_ms / 1000.0)
        self._batcher.start()
        return self

    def close(self) -> None:
        """Drain accepted requests, then release the worker pool.

        Requests the consumer never reached — enqueued before
        :meth:`start`, or racing past the ``_closed`` check behind the
        batcher's stop sentinel — get their futures failed with
        :class:`ServiceClosed` rather than left to hang a client."""
        with self._lock:
            # Flipped under the same lock submit() holds for its check:
            # once this block exits, no new request can enter the queue,
            # so the drain below is complete, not best-effort.
            if self._closed:
                return
            self._closed = True
        if self._batcher is not None:
            self._batcher.stop()
        self._timer.close()
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if isinstance(item, _Pending):
                self._finish(item, ServiceClosed(
                    "service closed before the request was served"))
        if self._engine is not None:
            self._engine.close()

    def __enter__(self) -> "AssertService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- request path --------------------------------------------------------

    def register_model(self, name: str, model) -> str:
        """Install ``model`` under ``name`` for ``POST /v1/eval`` traffic.

        Returns the model's content digest (the memo-key half), so
        operators can verify every fleet backend registered the same
        weights under the same name.  Re-registering a name replaces the
        model."""
        if not isinstance(name, str) or not name:
            raise ValueError(f"model name must be a non-empty string, "
                             f"got {name!r}")
        from repro.eval.runner import model_digest

        digest = model_digest(model)
        with self._lock:
            self._models[name] = (model, digest)
        return digest

    def submit(self,
               request: Union[SolveRequest, EvalRequest, str]) -> "Future":
        """Accept a :class:`SolveRequest` or an :class:`EvalRequest`; the
        future resolves to the kind's response.  Both kinds ride one
        queue, deadline timer, cancellation registry and batch dedup; a
        cached response comes back resolved and touches none of them.
        Raises :class:`ServiceOverloaded` when a miss finds the bounded
        queue full and :class:`ServiceClosed` after :meth:`close`."""
        if isinstance(request, str):
            request = SolveRequest(request)
        request.validate()
        if self._closed:
            raise ServiceClosed("service is closed")
        future: "Future" = Future()
        deadline = request.deadline_ms
        expiry = (time.monotonic() + deadline / 1000.0
                  if deadline is not None else None)
        pending = _Pending(request, future, expiry)
        # Responses are pure functions of content, so a cached one is the
        # answer even before start().  A miss is settled (counted) by the
        # flush's memory-only re-check, so the store is read once.
        hit = (self._cache.probe(pending.key)
               if self._cache is not None and request.cacheable else None)
        # Open the trace before any resolution path can see the request:
        # the inflight span roots the trace for in-process callers and
        # joins the HTTP server span's trace (the ambient context) when
        # one is active on this thread.
        if obs_trace.enabled():
            parent = obs_trace.current()
            trace_id = (parent.trace_id if parent is not None
                        else obs_trace.trace_id_for(pending.key,
                                                    request.request_id))
            attrs = {"request_id": request.request_id} \
                if request.request_id else {}
            if hit is not None:
                attrs["cache"] = "hit"
            pending.span = obs_trace.begin(
                "request.inflight", parent=parent, trace_id=trace_id,
                root=parent is None, attrs=attrs)
            pending.queue_span = obs_trace.begin("queue.wait",
                                                 parent=pending.span)
        # Atomic closed-check + enqueue (put_nowait never blocks, so
        # holding the lock is safe): a submit can therefore never land
        # behind close()'s stop sentinel and be silently stranded.
        with self._lock:
            if self._closed:
                self._end_spans(pending, "closed")
                raise ServiceClosed("service is closed")
            if hit is None:
                try:
                    self._queue.put_nowait(pending)
                except queue.Full:
                    self._rejected += 1
                    self._end_spans(pending, "rejected")
                    raise ServiceOverloaded(
                        f"request queue full ({self.config.max_queue} "
                        f"pending)") from None
                if request.request_id:
                    self._by_id.setdefault(request.request_id,
                                           []).append(pending)
            self._submitted += 1
        if hit is not None:
            # No queue, no timer entry: the wait is exactly zero, and the
            # histogram still counts every accepted request.
            pending.expiry = None
            self._queue_wait_seconds.observe(0.0)
            if pending.queue_span is not None:
                pending.queue_span.duration = 0.0
            self._finish(pending, hit)
        elif expiry is not None:
            self._timer.add(pending)
        return future

    def cancel(self, request_id: str) -> int:
        """Cancel every in-flight request tagged ``request_id``.

        A still-queued request is dropped — its batch slot never
        computes.  A request already riding a batch is abandoned: the
        computed response still lands in the result cache (it is a valid
        answer for future repeats) but is not delivered.  Either way the
        client's future resolves immediately to a structured
        ``status="cancelled"`` response.  Returns how many requests this
        call cancelled (0 for an unknown — or empty — tag).
        """
        if not request_id:
            return 0
        with self._lock:
            pendings = list(self._by_id.get(request_id, ()))
        cancelled = 0
        for pending in pendings:
            reply = pending.request.reply("cancelled", pending.key,
                                          "cancelled by client")
            if self._finish(pending, reply):
                cancelled += 1
        return cancelled

    def solve(self, request: Union[SolveRequest, str],
              timeout: Optional[float] = None) -> SolveResponse:
        """Synchronous convenience: submit and wait."""
        if self._batcher is None:
            self.start()
        return self.submit(request).result(timeout)

    # -- resolution (exactly-once, any thread) -------------------------------

    def _finish(self, pending: _Pending, outcome) -> bool:
        """Resolve ``pending`` with ``outcome`` (a response, or the
        exception that failed it) if nobody else has.

        Exactly one resolver wins — flush, deadline timer, cancel, or
        close — decided by the ``claimed`` flag under the service lock.
        Counters update before the future resolves, so a client that
        wakes from ``result()`` and immediately reads ``stats()`` sees
        its own request counted."""
        failed = isinstance(outcome, BaseException)
        status = "error" if failed else outcome.status
        with self._lock:
            if pending.claimed:
                return False
            pending.claimed = True
            if failed:
                self._errors += 1
            else:
                self._completed += 1
            if status == "timeout":
                self._timeouts += 1
            elif status == "cancelled":
                self._cancelled += 1
            self._unregister_locked(pending)
        self._request_seconds.observe(time.perf_counter() - pending.created)
        self._end_spans(pending, status)
        if pending.expiry is not None and status != "timeout":
            self._timer.discard(pending)
        if failed:
            pending.future.set_exception(outcome)
        else:
            pending.future.set_result(outcome)
        return True

    @staticmethod
    def _end_spans(pending: _Pending, status: str) -> None:
        """Close whatever request spans are still open (end is
        idempotent, so racing with the batch-pickup close is safe)."""
        for span_obj in (pending.queue_span, pending.batch_span):
            if span_obj is not None:
                span_obj.end()
        if pending.span is not None:
            pending.span.end(status=status)

    def _unregister_locked(self, pending: _Pending) -> None:
        request_id = pending.request.request_id
        if not request_id:
            return
        waiters = self._by_id.get(request_id)
        if waiters is None:
            return
        try:
            waiters.remove(pending)
        except ValueError:
            pass
        if not waiters:
            del self._by_id[request_id]

    def _expire_pending(self, pending: _Pending) -> None:
        """The deadline lapsed before anything served it (the timer's
        callback, and the flush's for a deadline that lapsed mid-compute)."""
        self._finish(pending, pending.request.reply(
            "timeout", pending.key,
            "deadline_ms exceeded before the request was served"))

    # -- batch flush (batcher thread) ----------------------------------------

    def _flush(self, batch: List[_Pending], reason: str) -> None:
        """Serve one batch.  Must resolve every future, success or not:
        a stranded future hangs its client forever, which is worse than
        any error it could carry."""
        try:
            self._flush_inner(batch, reason)
        except BaseException as exc:  # noqa: BLE001
            self._deliver(batch, exc)
            raise  # let the batcher count the flush error too

    def _flush_inner(self, batch: List[_Pending], reason: str) -> None:
        # Requests the deadline timer or a cancellation already resolved
        # drop out here, and a key all of whose waiters are gone is
        # never computed at all — a queued cancel or expiry saves its
        # compute entirely.  Waiters group by kind, then by content key.
        solves: "OrderedDict[str, List[_Pending]]" = OrderedDict()
        evals: "OrderedDict[str, List[_Pending]]" = OrderedDict()
        picked = time.perf_counter()
        for pending in batch:
            if pending.future.done():
                continue
            self._queue_wait_seconds.observe(picked - pending.created)
            if pending.span is not None:
                if pending.queue_span is not None:
                    pending.queue_span.end()
                pending.batch_span = obs_trace.begin(
                    "batch.wait", parent=pending.span,
                    attrs={"flush": reason})
            groups = (evals if isinstance(pending.request, EvalRequest)
                      else solves)
            groups.setdefault(pending.key, []).append(pending)
        # Evals after solves: solves are the latency-sensitive traffic.
        self._compute_solves(solves)
        self._compute_evals(evals)

    def _deliver(self, waiters: List[_Pending], outcome) -> None:
        """Resolve every waiter of one computed key with ``outcome``, a
        response or the exception its compute raised."""
        failed = isinstance(outcome, BaseException)
        now = time.monotonic()
        for pending in waiters:
            # Belt and braces: the timer normally fires first, but a
            # deadline that lapsed mid-compute must never see its
            # response delivered late just because the timer thread
            # has not been scheduled yet.
            if not failed and pending.expiry is not None \
                    and now > pending.expiry:
                self._expire_pending(pending)
            else:
                self._finish(pending, outcome)

    def _count_dedup(self, waiter_lists) -> None:
        """An extra waiter is deduped only when its key is computed (or
        evaluated) for it: waiters of a key the re-check found filled
        already counted as cache hits, one each."""
        extra = sum(len(waiters) - 1 for waiters in waiter_lists)
        if extra:
            with self._lock:
                self._deduped += extra

    def _compute_solves(self,
                        groups: "OrderedDict[str, List[_Pending]]") -> None:
        """Cache re-check, then one engine map over the missed keys."""
        misses: List[str] = []
        for key, waiters in groups.items():
            # Every waiter missed at submit; an earlier batch may have
            # filled the key since.  Memory only: submit read the store.
            cached = (self._cache.recheck(key, len(waiters))
                      if self._cache is not None else None)
            if self._cache is not None:
                outcome = "miss" if cached is None else "hit"
                for pending in waiters:
                    if pending.span is not None:
                        pending.span.attrs["cache"] = outcome
            if cached is not None:
                # Resolve hits now: a microsecond lookup must not wait
                # behind the batch's slowest cache-miss solve.
                self._deliver(waiters, cached)
            else:
                misses.append(key)
        if not misses:
            return

        tasks = [SolveTask(key=key,
                           design_source=groups[key][0].request.design_source,
                           options=groups[key][0].request.options,
                           seed=self.config.seed,
                           sim_mode=self.config.sim_mode,
                           coverage=self.config.coverage,
                           trace_parent=(
                               groups[key][0].span.context_tuple()
                               if groups[key][0].span is not None else None))
                 for key in misses]
        self._count_dedup(groups[key] for key in misses)
        try:
            results = self._engine.map(solve_task, tasks, stage="serve")
        except BaseException as exc:  # noqa: BLE001 - fail futures, not thread
            for key in misses:
                self._deliver(groups[key], exc)
            return

        compile_errors = sum(1 for response in results if not response.ok)
        with self._lock:
            self._solved += len(tasks)
            self._compile_errors += compile_errors
        for key, response in zip(misses, results):
            self._deliver(groups[key], response)
        # Write-through last: a disk-backed cache put (pickle + rename +
        # index bookkeeping) must not sit on the response critical path.
        # The computed response is valid and cacheable even when its own
        # waiters timed out or were cancelled mid-batch — a later repeat
        # hits it.
        if self._cache is not None:
            for key, response in zip(misses, results):
                self._cache.put(key, response)
        # Retain coverage reports for /covz — only from fresh solves
        # (cache hits would double-count their design's counters).
        for response in results:
            if response.coverage is not None:
                report = response.coverage.get("report")
                if report:
                    self.cov_buffer.record(report)

    def _compute_evals(self,
                       groups: "OrderedDict[str, List[_Pending]]") -> None:
        """One :func:`run_eval` per unique key serves every deduped
        waiter; repeats across batches recompute only the aggregation —
        the per-case outcomes come back from the store's eval/v1 memo."""
        self._count_dedup(groups.values())
        for key, waiters in groups.items():
            try:
                response = self._run_eval(waiters[0].request, key)
            except BaseException as exc:  # noqa: BLE001
                response = exc
            self._deliver(waiters, response)

    def _run_eval(self, request: EvalRequest, key: str) -> EvalResponse:
        """Resolve one unique eval key (batcher thread)."""
        with self._lock:
            entry = self._models.get(request.model)
        if entry is None:
            return EvalResponse(
                "unknown_model", key,
                error=f"no registered model named {request.model!r}")
        model, _digest = entry
        from repro.eval.runner import run_eval

        report = run_eval(model, request.cases, request.config,
                          engine=self._engine, store=self._store)
        with self._lock:
            self._evals += 1
            self._eval_cases += report.stats.get("cases", 0)
            self._eval_memo_hits += report.stats.get("memo_hits", 0)
        return EvalResponse("ok", key, report=report)

    # -- reporting -----------------------------------------------------------

    def stats(self) -> ServiceStats:
        """A point-in-time snapshot of the service counters.

        Counter fields are individually monotonic, but batcher/cache
        counters are read without pausing their writer threads, so
        derived ratios (``mean_batch``, ``cache_hit_rate``) can lag an
        in-flight request by one update."""
        stats = ServiceStats()
        with self._lock:
            for name in SERVICE_COUNTERS:
                setattr(stats, name, getattr(self, f"_{name}"))
            stats.inflight = max(
                0, self._submitted - self._completed - self._errors)
        if self._cache is not None:
            stats.cache_hits = self._cache.hits
            stats.cache_misses = self._cache.misses
            stats.cache_store_hits = self._cache.store_hits
            stats.cache_entries = len(self._cache)
            stats.cache_hit_rate = round(self._cache.hit_rate, 4)
        if self._store is not None:
            stats.store_entries = len(self._store)
        batcher = self._batcher_stats()
        stats.batches = batcher.batches
        stats.batched_requests = batcher.items
        stats.mean_batch = round(batcher.mean_batch, 3)
        stats.max_batch = batcher.max_batch
        for reason in FLUSH_REASONS:
            setattr(stats, f"flush_{reason}", batcher.flush_reasons[reason])
        stats.queue_depth = self._queue.qsize()
        stats.queue_capacity = self.config.max_queue
        if self._engine is not None:
            stats.backend = self._engine.backend
            stats.n_workers = self._engine.n_workers
        return stats

    def counter_totals(self) -> Dict[str, Dict[str, int]]:
        """The engine's :meth:`ExecutionEngine.counter_totals` (this
        process's snapshot before :meth:`start`), for ``/metricsz``."""
        engine = self._engine
        return engine.counter_totals() if engine else metrics.snapshot()

    def covz(self, limit: Optional[int] = None) -> Dict[str, object]:
        """The payload behind ``GET /covz``: this service's retained
        per-design coverage reports (most recent first), bounded like
        the trace buffer.  ``limit`` caps how many designs are
        returned."""
        return self.cov_buffer.snapshot(limit=limit)
