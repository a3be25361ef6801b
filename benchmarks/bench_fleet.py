#!/usr/bin/env python
"""Fleet benchmark: horizontal scale-out through the router, same host.

Replays one deterministic repeat-heavy request stream (see
:mod:`repro.serve.loadgen`) against two setups, back to back on this
very host, two passes each (cold, then steady-state):

- **single** — one live :class:`AssertHttpServer` on localhost;
- **fleet**  — the identical stream through a
  :class:`repro.serve.FleetRouter` over ``--backends`` identical
  instances (same per-instance ``ServeConfig``).

Why the fleet wins even on one core: per-instance resources are fixed
(each result cache holds ``--cache-entries`` responses), so the single
instance thrashes on a working set of ``--unique`` designs and keeps
recomputing evicted keys — every pass, forever.  The router's
consistent hash partitions the key space, each backend's share fits
its cache, and the fleet's caches compose into one aggregate cache ~N
times the size: fleet-wide each unique design is solved about once,
after which the stream is served from memory.  The gate is measured on
the **steady** pass (second replay, caches at their steady state) —
the regime a long-lived service actually operates in; the cold pass,
where both sides pay the same compulsory misses, is reported
alongside.  On multi-core hosts the N worker pools add compute scaling
on top of the cache win; the gate holds on both because both sides run
on the same host in the same run.

Gates (same-host relative, like every bench in this repo):

- steady-pass ``fleet req/s >= --min-speedup x single req/s``
  (default 2x);
- every response body through the router — both passes — must be
  byte-identical to the single-instance body for the same request:
  routing is pure execution, invisible in the bytes;
- zero transport errors on either side.

Results land in ``BENCH_fleet.json`` (CI writes ``BENCH_fleet.ci.json``).

Run:  PYTHONPATH=src python benchmarks/bench_fleet.py
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.core.api import FleetConfig, make_fleet
from repro.engine import available_cpus
from repro.obs.metrics import parse_prometheus_text
from repro.serve import (
    AssertClient,
    AssertHttpServer,
    AssertService,
    HttpConfig,
    ServeConfig,
    WorkloadSpec,
    build_workload,
    run_load,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def _serve_config(args) -> ServeConfig:
    return ServeConfig(
        n_workers=args.workers, backend="auto",
        max_queue=max(args.requests * 2, 64),
        max_batch=args.max_batch,
        batch_window_ms=args.window_ms,
        result_cache=True,
        cache_entries=args.cache_entries,
        seed=args.seed)


def _metricsz(client: AssertClient):
    return parse_prometheus_text(client.metricsz())


def _count(parsed, name: str, **labels) -> int:
    return int(parsed.value(name, **labels) or 0)


def _print(label: str, report, solved, cache_hits) -> None:
    print(f"  {label:<8} {report.seconds:7.2f}s  "
          f"{report.req_per_sec:7.1f} req/s  p50 {report.p50_ms:7.1f}ms  "
          f"p95 {report.p95_ms:7.1f}ms  p99 {report.p99_ms:7.1f}ms  "
          f"solved {solved}  "
          f"cache hits {cache_hits}  errors {report.errors}")


def run_bench(args) -> dict:
    spec = WorkloadSpec(n_requests=args.requests,
                        unique_designs=args.unique,
                        seed=args.seed,
                        bmc_depth=args.bmc_depth,
                        bmc_random_trials=args.bmc_random_trials)
    requests = build_workload(spec)
    print(f"bench_fleet: {args.requests} requests over {args.unique} unique "
          f"designs, {args.backends} backends, "
          f"cache_entries={args.cache_entries}/instance, "
          f"concurrency={args.concurrency}, workers={args.workers}, "
          f"cpus={available_cpus()}")

    # -- one instance: the floor the fleet is measured against -----------
    with AssertHttpServer(AssertService(_serve_config(args)),
                          HttpConfig()) as server:
        client = AssertClient.for_server(server)
        single_cold = run_load(client, requests,
                               concurrency=args.concurrency,
                               label="single_cold")
        cold_solved = server.service.stats().solved
        single = run_load(client, requests, concurrency=args.concurrency,
                          label="single")
        single_stats = server.service.stats()
    _print("single/c", single_cold, cold_solved, 0)
    # Steady pass: the cache is as warm as it will ever get, yet the
    # working set still does not fit — the thrash is structural.
    _print("single", single, single_stats.solved - cold_solved,
           single_stats.cache_hits)

    # -- the same stream through the router over N backends --------------
    router = make_fleet(FleetConfig(n_backends=args.backends),
                        _serve_config(args))
    router.start()
    try:
        client = AssertClient.for_server(router)
        fleet_cold = run_load(client, requests,
                              concurrency=args.concurrency,
                              label="fleet_cold")
        fleet_cold_solved = _count(_metricsz(client),
                                   "repro_service_solved_total")
        fleet = run_load(client, requests, concurrency=args.concurrency,
                         label="fleet")
        # Fleet totals from the router's merged exposition; per-backend
        # numbers from each backend's own, found by /healthz's address.
        merged = _metricsz(client)
        router_stats = router.stats()
        shares: dict = {}  # where each unique design's key lands
        for request in requests[:args.unique]:
            owner = router.candidates_for(request.cache_key())[0]
            shares[owner] = shares.get(owner, 0) + 1
        per_backend = []
        for node, status in client.healthz()["nodes"].items():
            host, _, port = status["address"].rpartition(":")
            own = _metricsz(AssertClient(host=host, port=int(port)))
            per_backend.append({
                "node": node,
                "forwarded": _count(merged,
                                    "repro_router_backend_forwarded_total",
                                    node=node),
                "owned_keys": shares.get(node, 0),
                "solved": _count(own, "repro_service_solved_total"),
                "cache_hits": _count(own, "repro_service_cache_hits_total")})
    finally:
        router.close()
    fleet_solved_total = _count(merged, "repro_service_solved_total")
    fleet_cache_hits = _count(merged, "repro_service_cache_hits_total")
    _print("fleet/c", fleet_cold, fleet_cold_solved, 0)
    _print("fleet", fleet, fleet_solved_total - fleet_cold_solved,
           fleet_cache_hits)
    for entry in per_backend:
        print(f"    backend {entry['node']}: {entry['owned_keys']} keys, "
              f"{entry['forwarded']} requests, solved {entry['solved']}, "
              f"cache hits {entry['cache_hits']}")

    # Byte identity across every pass: cold and steady, router and
    # direct, must all serve the same bytes for the same request.
    reference = [r.to_json() if r is not None else None
                 for r in single_cold.responses]
    responses_match = all(
        body is not None and all(
            other.responses[i] is not None
            and other.responses[i].to_json() == body
            for other in (single, fleet_cold, fleet))
        for i, body in enumerate(reference))
    speedup = (round(fleet.req_per_sec / single.req_per_sec, 3)
               if single.req_per_sec else 0.0)
    clean = (single_cold.errors == single.errors
             == fleet_cold.errors == fleet.errors == 0)
    single_steady_solved = single_stats.solved - cold_solved
    fleet_steady_solved = fleet_solved_total - fleet_cold_solved

    report = {
        "benchmark": "fleet",
        "n_requests": args.requests,
        "unique_designs": args.unique,
        "n_backends": args.backends,
        "cache_entries_per_instance": args.cache_entries,
        "concurrency": args.concurrency,
        "requested_workers": args.workers,
        "cpu_count": available_cpus(),
        "max_batch": args.max_batch,
        "batch_window_ms": args.window_ms,
        "single_cold": single_cold.to_dict(),
        "single": single.to_dict(),
        "fleet_cold": fleet_cold.to_dict(),
        "fleet": fleet.to_dict(),
        "single_solved": single_stats.solved,
        "single_steady_solved": single_steady_solved,
        "single_cache_hits": single_stats.cache_hits,
        "fleet_solved": fleet_solved_total,
        "fleet_steady_solved": fleet_steady_solved,
        "fleet_cache_hits": fleet_cache_hits,
        "per_backend": per_backend,
        "router": router_stats,
        "fleet_speedup": speedup,
        "min_speedup": args.min_speedup,
        "speedup_ok": speedup >= args.min_speedup,
        "responses_match": responses_match,
        "no_errors": clean,
        # Affinity: at steady state the fleet's partitioned caches absorb
        # the stream while the single instance keeps recomputing.
        "affinity_ok": fleet_steady_solved < single_steady_solved,
        "unix_time": int(time.time()),
    }
    output = args.output or REPO_ROOT / "BENCH_fleet.json"
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"  steady-state fleet speedup {speedup}x over one instance "
          f"(floor {args.min_speedup}x), steady solves "
          f"{fleet_steady_solved} vs single {single_steady_solved}, "
          f"responses match: {responses_match} -> {output}")
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=120)
    parser.add_argument("--unique", type=int, default=18)
    parser.add_argument("--backends", type=int, default=3)
    parser.add_argument("--cache-entries", type=int, default=9,
                        help="result-cache entries per instance; below "
                             "--unique so one instance thrashes while "
                             "each backend's ring share fits (the ring "
                             "layout is deterministic: stable node names "
                             "backend-0..N-1, fixed seed)")
    parser.add_argument("--concurrency", type=int, default=12)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--max-batch", type=int, default=8)
    parser.add_argument("--window-ms", type=float, default=5.0)
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--bmc-depth", type=int, default=12)
    parser.add_argument("--bmc-random-trials", type=int, default=48)
    parser.add_argument("--output", type=Path, default=None)
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="required fleet/single req/s ratio, same host "
                             "(0 disables the gate)")
    args = parser.parse_args()
    report = run_bench(args)
    if not report["responses_match"]:
        print("  FATAL: fleet responses diverge from single-instance bodies")
        sys.exit(1)
    if not report["no_errors"]:
        print("  FATAL: load run recorded transport errors")
        sys.exit(2)
    if args.min_speedup > 0 and not report["speedup_ok"]:
        print("  FATAL: fleet speedup below floor")
        sys.exit(3)


if __name__ == "__main__":
    main()
