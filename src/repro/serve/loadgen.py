"""Deterministic load generation for the serving layer.

``build_workload`` replays the same request stream for a given spec on
every host and every run: the design pool comes from the corpus
generator (per-design derived seeds) and the stream's sampling RNG
derives via :func:`repro.engine.rng.derive_seed` — so benches compare
*service* behaviour, never workload noise.  Streams deliberately sample
a small unique pool with repeats, the shape real serving traffic has
(many users, few distinct hot designs).

``run_load`` drives a target with a fixed client concurrency, measures
per-request latency from ``submit()`` to ``result()``, honours
backpressure (an overloaded queue is retried with a short pause, and
counted), and reports p50/p95/p99/max latency plus requests/sec in a
:class:`LoadReport`.  The target is anything with the service surface —
an in-process :class:`AssertService` *or* an HTTP
:class:`repro.serve.client.AssertClient` — so the ``http`` contract of
``benchmarks/gates.py`` can compare the two paths on identical request
streams.  In-process submits raise :class:`ServiceOverloaded`
synchronously; over HTTP the same exception surfaces at ``result()`` —
both are retried and counted.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.corpus.generator import CorpusGenerator
from repro.engine.rng import derive_rng, derive_seed
from repro.knobs import SEMANTIC, configclass, knob
from repro.serve.service import (
    ServiceOverloaded,
    SolveOptions,
    SolveRequest,
    SolveResponse,
)


@configclass(frozen=True)
class WorkloadSpec:
    """Shape of a deterministic request stream (every knob picks which
    requests the stream holds, so every knob is ``semantic``)."""

    n_requests: int = knob(64, kind=int, ge=1, role=SEMANTIC)
    unique_designs: int = knob(8, kind=int, ge=1, role=SEMANTIC)
    seed: int = knob(2025, kind=int, role=SEMANTIC)
    families: Optional[Tuple[str, ...]] = knob(
        None, kind=(tuple, list), items=str, optional=True, role=SEMANTIC)
    hallucination_rate: float = knob(0.0, kind=float, ge=0, le=1,
                                     role=SEMANTIC)
    bmc_depth: int = knob(10, kind=int, ge=1, role=SEMANTIC)
    bmc_random_trials: int = knob(24, kind=int, ge=0, role=SEMANTIC)


def build_workload(spec: WorkloadSpec) -> List[SolveRequest]:
    """The spec's request stream — identical for equal specs, anywhere.

    Each request carries the sampled design's template hints (standing in
    for upstream LLM proposals) so the service exercises its full
    validate-and-score path.
    """
    generator = CorpusGenerator(
        seed=derive_seed(spec.seed, "loadgen", "corpus") % (2 ** 32),
        families=spec.families)
    pool = generator.generate(spec.unique_designs)
    options = [SolveOptions.for_design(
        design,
        hallucination_rate=spec.hallucination_rate,
        bmc_depth=spec.bmc_depth,
        bmc_random_trials=spec.bmc_random_trials) for design in pool]
    stream = derive_rng(spec.seed, "loadgen", "stream")
    requests = []
    for i in range(spec.n_requests):
        pick = stream.randrange(spec.unique_designs)
        requests.append(SolveRequest(pool[pick].source, options[pick],
                                     request_id=f"req_{i:05d}"))
    return requests


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile over an ascending list (0 for empty)."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[rank]


@dataclass
class LoadReport:
    """One load run's outcome (latencies in milliseconds)."""

    label: str
    n_requests: int
    concurrency: int
    seconds: float
    req_per_sec: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    max_ms: float
    errors: int
    backpressure_retries: int
    responses: List[SolveResponse] = field(default_factory=list, repr=False)

    def to_dict(self) -> Dict[str, object]:
        return {"label": self.label, "n_requests": self.n_requests,
                "concurrency": self.concurrency,
                "seconds": round(self.seconds, 4),
                "req_per_sec": round(self.req_per_sec, 3),
                "p50_ms": round(self.p50_ms, 3),
                "p95_ms": round(self.p95_ms, 3),
                "p99_ms": round(self.p99_ms, 3),
                "max_ms": round(self.max_ms, 3),
                "errors": self.errors,
                "backpressure_retries": self.backpressure_retries}


def _solve_with_backoff(target, request: SolveRequest, timeout_s: float,
                        retry_wait_s: float) -> Tuple[SolveResponse, int]:
    """Solve synchronously, retrying on backpressure; returns
    (response, retries).  Both transports expose the same blocking
    ``solve(request, timeout)`` and raise :class:`ServiceOverloaded` on
    a full queue — and the direct call keeps thread spawns out of the
    latency the benches measure."""
    retries = 0
    while True:
        try:
            return target.solve(request, timeout_s), retries
        except ServiceOverloaded:
            retries += 1
            time.sleep(retry_wait_s)


def run_load(service, requests: List[SolveRequest],
             concurrency: int = 1, label: str = "load",
             timeout_s: float = 300.0,
             retry_wait_s: float = 0.002) -> LoadReport:
    """Drive ``service`` (or an HTTP client) with ``concurrency``
    synchronous clients.

    ``concurrency=1`` is the sequential one-request-at-a-time baseline
    (no request ever has a batchmate); higher values model that many
    users awaiting responses at once, which is what gives the
    micro-batcher coalescing opportunities.
    """
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    start = getattr(service, "start", None)
    if callable(start):
        start()
    latencies_ms: List[float] = [0.0] * len(requests)
    responses: List[Optional[SolveResponse]] = [None] * len(requests)
    errors = 0
    total_retries = 0

    def client(index: int) -> int:
        started = time.perf_counter()
        response, retries = _solve_with_backoff(service, requests[index],
                                                timeout_s, retry_wait_s)
        latencies_ms[index] = (time.perf_counter() - started) * 1000.0
        responses[index] = response
        return retries

    run_started = time.perf_counter()
    if concurrency == 1:
        for i in range(len(requests)):
            try:
                total_retries += client(i)
            except Exception:  # noqa: BLE001 - load test records, not raises
                errors += 1
    else:
        with ThreadPoolExecutor(max_workers=concurrency,
                                thread_name_prefix=f"{label}-client") as pool:
            for outcome in pool.map(_guarded(client), range(len(requests))):
                if outcome is None:
                    errors += 1
                else:
                    total_retries += outcome
    seconds = time.perf_counter() - run_started

    ordered = sorted(lat for lat, resp in zip(latencies_ms, responses)
                     if resp is not None)
    return LoadReport(
        label=label, n_requests=len(requests), concurrency=concurrency,
        seconds=seconds,
        req_per_sec=(len(requests) / seconds) if seconds > 0 else 0.0,
        p50_ms=percentile(ordered, 0.50),
        p95_ms=percentile(ordered, 0.95),
        p99_ms=percentile(ordered, 0.99),
        max_ms=ordered[-1] if ordered else 0.0,
        errors=errors, backpressure_retries=total_retries,
        responses=list(responses))


def _guarded(fn):
    """None on exception — pool.map must outlive individual failures."""
    def wrapper(index):
        try:
            return fn(index)
        except Exception:  # noqa: BLE001
            return None
    return wrapper
