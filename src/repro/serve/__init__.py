"""The online serving layer: request/response assertion generation.

Where :mod:`repro.datagen` regenerates whole datasets, this package
serves one design at a time with low latency and amortizes work across
concurrent traffic:

- :mod:`repro.serve.service` — :class:`AssertService`: bounded request
  queue with backpressure, content-addressed deterministic solves,
  structured errors for malformed input, one ``submit`` for both
  request kinds (:class:`SolveRequest`, :class:`EvalRequest`);
- :mod:`repro.serve.batcher` — :class:`MicroBatcher`: coalesces
  queued cache misses into one engine map per batch, deduplicating
  identical designs; a batch stays open only while arrivals keep
  batching (flush on size, timeout, or at once when idle);
- :mod:`repro.serve.cache` — :class:`ResultCache`: content-hash LRU of
  finished responses, so repeat designs skip compute entirely — a hit
  resolves at submit, without waiting for a batch window;
- :mod:`repro.serve.loadgen` — deterministic corpus-sampled request
  streams and a latency/throughput harness (p50/p95/p99, req/s)
  feeding the serving contracts of ``benchmarks/gates.py``;
- :mod:`repro.serve.codecs` — the one module owning every wire body:
  the :data:`KINDS` table (one row per wire kind, ``solve`` and
  ``eval``), their codecs, and the structured error envelope all three
  surfaces (server, client, router) share;
- :mod:`repro.serve.http` — :class:`AssertHttpServer`: the stdlib
  JSON-over-HTTP transport (``POST`` and ``DELETE`` on every
  :data:`KINDS` path, ``GET /healthz`` / ``/metricsz`` / ``/tracez`` /
  ``/covz``, graceful drain), carrying request traces across the wire
  via ``X-Repro-Trace-Id`` (see :mod:`repro.obs`);
- :mod:`repro.serve.client` — :class:`AssertClient` /
  :class:`SolveHandle`: the wire twin of the in-process API, with
  client-initiated cancellation and ``eval()`` for pass@k runs, over
  reused keep-alive connections (``ConnectionPool``, shared with the
  router's forwards);
- :mod:`repro.serve.router` — :class:`FleetRouter`: consistent-hash
  routing over N :class:`AssertHttpServer` backends on the same wire
  protocol (cache-affine key routing, health ejection/re-admission,
  429 spillover, fleet ``/metricsz``, propagated drain).

``GET /metricsz`` is the one counter surface for operators, on a lone
server and on the router alike; :meth:`AssertService.stats` is the same
counters as a typed in-process snapshot.
"""

from repro.serve.batcher import BatcherStats, MicroBatcher
from repro.serve.cache import ResultCache, content_key
from repro.serve.client import (
    AssertClient,
    ClientError,
    EvalFailed,
    SolveHandle,
)
from repro.serve.codecs import (
    KINDS,
    error_body,
    eval_request_from_json,
    eval_request_to_json,
    request_from_json,
    request_to_json,
    response_from_json,
)
from repro.serve.http import AssertHttpServer, HttpConfig
from repro.serve.loadgen import (
    LoadReport,
    WorkloadSpec,
    build_workload,
    run_load,
)
from repro.serve.router import FleetRouter, HashRing, RouterConfig
from repro.serve.service import (
    AssertService,
    EvalRequest,
    EvalResponse,
    ScoredProposal,
    ServeConfig,
    ServiceClosed,
    ServiceOverloaded,
    ServiceStats,
    SolveOptions,
    SolveRequest,
    SolveResponse,
    solve_task,
)

__all__ = [
    "KINDS",
    "AssertClient",
    "AssertHttpServer",
    "AssertService",
    "BatcherStats",
    "ClientError",
    "EvalFailed",
    "EvalRequest",
    "EvalResponse",
    "FleetRouter",
    "HashRing",
    "HttpConfig",
    "LoadReport",
    "MicroBatcher",
    "ResultCache",
    "RouterConfig",
    "ScoredProposal",
    "ServeConfig",
    "ServiceClosed",
    "ServiceOverloaded",
    "ServiceStats",
    "SolveHandle",
    "SolveOptions",
    "SolveRequest",
    "SolveResponse",
    "WorkloadSpec",
    "build_workload",
    "content_key",
    "error_body",
    "eval_request_from_json",
    "eval_request_to_json",
    "request_from_json",
    "request_to_json",
    "response_from_json",
    "run_load",
    "solve_task",
]
