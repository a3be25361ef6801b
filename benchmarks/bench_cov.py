#!/usr/bin/env python
"""Coverage-collection overhead benchmark: telemetry must be near-free.

Replays one deterministic corpus-sampled request stream (see
:mod:`repro.serve.loadgen`) through a live
:class:`repro.serve.http.AssertHttpServer` twice per repeat — coverage
collection off, then on — on an otherwise identical setup (fresh
server, result cache off, same seed):

- **coverage_off** — ``ServeConfig(coverage=False)``, the default: the
  simulators' ``cov`` hook stays ``None``, the floor;
- **coverage_on**  — toggle/block/vacuity counters collected on every
  snapshot of every validating check, reports merged into the
  response's ``coverage`` block and the server's ``/covz`` buffer.

Both sides take the best pass across ``--repeats`` (max throughput,
min p50), so scheduler noise on a busy host does not masquerade as
collection cost.  The gates:

- ``coverage_on_throughput >= --min-throughput x coverage_off``
  (default 0.90x, CI runs at 0.85x): collection may cost a sliver of a
  request, never more — p50s are also reported, informationally;
- byte-identity: every coverage-on response body, with its ``coverage``
  block removed, must equal the coverage-off body for the same request
  — coverage is a pure execution knob and must never fork what is
  solved;
- tier identity: one extra coverage-on pass under ``sim_mode="interp"``
  must produce coverage blocks byte-identical to the compiled tier's —
  the telemetry, like the traces it derives from, is tier-invariant;
- sanity: with coverage on, ``/covz`` retains reports and ``/metricsz``
  exposes a nonzero ``repro_coverage_toggles_total``: the engine's
  total, which adds worker processes' coverage under a process pool and
  is the server process's own counter under the serial backend.

Results land in ``BENCH_cov.json``.

Run:  PYTHONPATH=src python benchmarks/bench_cov.py
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.engine import available_cpus
from repro.obs import metrics as obs_metrics
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


def _serve_config(args, coverage: bool, sim_mode: str) -> ServeConfig:
    return ServeConfig(
        n_workers=args.workers, backend="auto",
        max_queue=max(args.requests * 2, 64),
        max_batch=args.max_batch,
        batch_window_ms=args.window_ms,
        result_cache=False,
        coverage=coverage,
        sim_mode=sim_mode,
        seed=args.seed)


def _measure(args, requests, label: str, coverage: bool,
             sim_mode: str = "compiled"):
    """One pass: fresh server, coverage forced to ``coverage``."""
    config = _serve_config(args, coverage=coverage, sim_mode=sim_mode)
    with AssertHttpServer(AssertService(config), HttpConfig()) as server:
        client = AssertClient.for_server(server)
        report = run_load(client, requests,
                          concurrency=args.concurrency, label=label)
        covz = client.covz() if coverage else None
        metricsz = client.metricsz() if coverage else None
    print(f"  {label:<12} {report.seconds:7.2f}s  "
          f"{report.req_per_sec:7.1f} req/s  p50 {report.p50_ms:7.1f}ms  "
          f"p95 {report.p95_ms:7.1f}ms  p99 {report.p99_ms:7.1f}ms  "
          f"errors {report.errors}")
    return report, covz, metricsz


def _stripped_json(response) -> str:
    """The response body with its ``coverage`` block removed — what the
    coverage-off server must have produced for the same request."""
    saved, response.coverage = response.coverage, None
    try:
        return response.to_json()
    finally:
        response.coverage = saved


def _coverage_blocks(report) -> list:
    return [json.dumps(r.coverage, sort_keys=True) if r is not None else None
            for r in report.responses]


def run_bench(args) -> dict:
    spec = WorkloadSpec(n_requests=args.requests,
                        unique_designs=args.unique,
                        seed=args.seed,
                        bmc_depth=args.bmc_depth,
                        bmc_random_trials=args.bmc_random_trials)
    requests = build_workload(spec)
    print(f"bench_cov: {args.requests} requests over {args.unique} unique "
          f"designs, concurrency={args.concurrency}, "
          f"workers={args.workers}, repeats={args.repeats}, "
          f"cpus={available_cpus()}")

    off_reports, on_reports = [], []
    bodies_match = True
    covz_retained = 0
    coverage_toggles = 0.0
    for repeat in range(args.repeats):
        off, _, _ = _measure(args, requests, f"off[{repeat}]",
                             coverage=False)
        on, covz, metricsz = _measure(args, requests, f"on[{repeat}]",
                                      coverage=True)
        off_reports.append(off)
        on_reports.append(on)
        bodies_match = bodies_match and all(
            a is not None and b is not None
            and a.to_json() == _stripped_json(b)
            for a, b in zip(off.responses, on.responses))
        covz_retained = max(covz_retained, covz["retained"])
        try:
            parsed = obs_metrics.parse_prometheus_text(metricsz)
            coverage_toggles = max(
                coverage_toggles,
                parsed.value("repro_coverage_toggles_total")
                or 0.0)
        except ValueError:
            pass

    # One coverage-on pass per tier: the interpreter must report the
    # exact coverage the compiled tier reported for the same stream.
    print("  tier identity (coverage on, interp vs compiled):")
    interp, _, _ = _measure(args, requests, "interp", coverage=True,
                            sim_mode="interp")
    tiers_match = (_coverage_blocks(interp) == _coverage_blocks(on_reports[-1])
                   and all(block is not None
                           for block in _coverage_blocks(interp)))

    # Best-of-repeats on both sides: the ratio compares each mode's
    # least-disturbed pass instead of averaging scheduler noise in.
    off_p50 = min(r.p50_ms for r in off_reports)
    on_p50 = min(r.p50_ms for r in on_reports)
    overhead = round(on_p50 / off_p50, 3) if off_p50 else 0.0
    off_rps = max(r.req_per_sec for r in off_reports)
    on_rps = max(r.req_per_sec for r in on_reports)
    throughput_ratio = round(on_rps / off_rps, 3) if off_rps else 0.0
    clean = all(r.errors == 0
                for r in off_reports + on_reports + [interp])

    report = {
        "benchmark": "cov",
        "n_requests": args.requests,
        "unique_designs": args.unique,
        "concurrency": args.concurrency,
        "requested_workers": args.workers,
        "cpu_count": available_cpus(),
        "repeats": args.repeats,
        "max_batch": args.max_batch,
        "batch_window_ms": args.window_ms,
        "coverage_off": [r.to_dict() for r in off_reports],
        "coverage_on": [r.to_dict() for r in on_reports],
        "coverage_off_p50_ms": off_p50,
        "coverage_on_p50_ms": on_p50,
        "coverage_p50_overhead": overhead,
        "coverage_off_req_per_sec": off_rps,
        "coverage_on_req_per_sec": on_rps,
        "coverage_throughput_ratio": throughput_ratio,
        "min_throughput": args.min_throughput,
        "throughput_ok": bool(throughput_ratio
                              and throughput_ratio >= args.min_throughput),
        "responses_match": bodies_match,
        "tiers_match": tiers_match,
        "no_errors": clean,
        "covz_retained": covz_retained,
        "covz_populated": covz_retained > 0,
        "coverage_toggles_total": coverage_toggles,
        "metricsz_coverage_ok": coverage_toggles > 0,
        "unix_time": int(time.time()),
    }
    output = args.output or REPO_ROOT / "BENCH_cov.json"
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"  coverage throughput {throughput_ratio}x "
          f"(floor {args.min_throughput}x; p50 overhead {overhead}x), "
          f"bodies match: {bodies_match}, tiers match: {tiers_match}, "
          f"covz retained: {covz_retained}, "
          f"coverage toggles: {coverage_toggles:.0f} -> {output}")
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=64)
    parser.add_argument("--unique", type=int, default=8)
    parser.add_argument("--concurrency", type=int, default=16)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--max-batch", type=int, default=32)
    parser.add_argument("--window-ms", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--bmc-depth", type=int, default=10)
    parser.add_argument("--bmc-random-trials", type=int, default=24)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--output", type=Path, default=None)
    parser.add_argument("--min-throughput", type=float, default=0.90,
                        help="required coverage-on/off throughput ratio, "
                             "same host (0 disables the gate)")
    args = parser.parse_args()
    report = run_bench(args)
    if not report["responses_match"]:
        print("  FATAL: response bodies diverge once coverage is stripped")
        sys.exit(1)
    if not report["no_errors"]:
        print("  FATAL: load run recorded transport errors")
        sys.exit(2)
    if args.min_throughput > 0 and not report["throughput_ok"]:
        print("  FATAL: coverage-on throughput below floor")
        sys.exit(3)
    if (not report["tiers_match"] or not report["covz_populated"]
            or not report["metricsz_coverage_ok"]):
        print("  FATAL: tier coverage mismatch, /covz empty, or "
              "repro_coverage_toggles_total is 0 on /metricsz")
        sys.exit(4)


if __name__ == "__main__":
    main()
