#!/usr/bin/env python
"""Same-host gates: every bench contract in one table, one driver, one report.

``perfbench/run.py`` measures absolute numbers.  The contracts here gate
only what holds on any host because both sides run back to back in one
process: a ratio of two legs against a bound, plus fatal checks (byte
identity, zero errors, fully memoized).  Each entry of :data:`CONTRACTS`
declares

- one fixed size (``config``: the size CI runs);
- a measure function that runs the legs and returns them with the
  contract's ratios and checks;
- each ratio's direction and bound;
- the names of its fatal checks, every one of which must hold.

Run:  PYTHONPATH=src python benchmarks/gates.py [contract ...] [--output PATH]

With no contract named, all of them run, one fresh interpreter each
(as CI runs one contract per leg).  The report (by default
``BENCH_gates.json`` at the repo root) holds the host, then one entry
per contract: ``config``, ``legs``, ``ratio``, ``bound``, ``checks`` and
``ok``.  The exit status is 1 when any contract fails, and every failed
contract is named.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines.engine import make_baseline
from repro.core.api import make_fleet
from repro.corpus.generator import CorpusGenerator
from repro.datagen.pipeline import DatagenConfig, run_pipeline
from repro.datagen.stage1 import unit_ids
from repro.datagen.stage2 import (
    STAGE_NAME,
    _validate_svas_per_proposal,
    validate_svas,
)
from repro.engine import StageContext, available_cpus, metrics
from repro.eval import EvalConfig, run_eval
from repro.eval.benchmark import build_benchmark
from repro.obs import trace as obs_trace
from repro.obs.metrics import parse_prometheus_text
from repro.oracles.sva import SvaOracle
from repro.serve import (
    AssertClient,
    AssertHttpServer,
    AssertService,
    EvalRequest,
    HttpConfig,
    LoadReport,
    ServeConfig,
    SolveOptions,
    WorkloadSpec,
    build_workload,
    run_load,
    solve_task,
)
from repro.serve.service import SolveTask
from repro.store import StoreConfig
from repro.sva.bmc import BmcConfig
from repro.sva.reference import reference_tier
from repro.verilog.compile import compile_source, default_compile_cache

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_gates.json"


# -- the contract shape ----------------------------------------------------------


@dataclass(frozen=True)
class Bound:
    """``ratio >= value`` (a speedup) or ``ratio <= value`` (an overhead).
    A missing, non-finite or non-positive ratio never holds."""

    op: str
    value: float

    def holds(self, ratio: object) -> bool:
        if isinstance(ratio, bool) or not isinstance(ratio, (int, float)) \
                or not math.isfinite(ratio) or ratio <= 0:
            return False
        return ratio >= self.value if self.op == ">=" else ratio <= self.value

    def __str__(self) -> str:
        return f"{self.op} {self.value}"


def at_least(value: float) -> Bound:
    return Bound(">=", value)


def at_most(value: float) -> Bound:
    return Bound("<=", value)


@dataclass(frozen=True)
class Measured:
    """What a measure function returns: its legs (reported as they are),
    its ratios by name and its checks by name."""

    legs: Dict[str, object]
    ratios: Dict[str, Optional[float]]
    checks: Dict[str, bool]


@dataclass(frozen=True)
class Contract:
    name: str
    config: Dict[str, object]
    measure: Callable[[Dict[str, object]], Measured]
    bounds: Dict[str, Bound]
    checks: Tuple[str, ...]


def judge(contract: Contract, measured: Measured) -> Dict[str, object]:
    """The contract's report entry: a declared ratio that is missing, or
    a declared check that is missing or not ``True``, fails it."""
    ratios = {name: measured.ratios.get(name) for name in contract.bounds}
    checks = {name: measured.checks.get(name) is True
              for name in contract.checks}
    ok = all(bound.holds(ratios[name])
             for name, bound in contract.bounds.items()) \
        and all(checks.values())
    return {"config": dict(contract.config), "legs": measured.legs,
            "ratio": ratios,
            "bound": {name: str(b) for name, b in contract.bounds.items()},
            "checks": checks, "ok": ok}


# -- shared helpers ----------------------------------------------------------------


def ratio(numerator: float, denominator: float) -> Optional[float]:
    return round(numerator / denominator, 3) if denominator > 0 else None


def best_of(repeats: int, fn: Callable[[], object]) -> Tuple[float, list]:
    """Run ``fn`` ``repeats`` times: the least wall seconds, and every
    run's result (callers check that the runs agree)."""
    seconds, results = [], []
    for _ in range(repeats):
        started = time.perf_counter()
        results.append(fn())
        seconds.append(time.perf_counter() - started)
    return min(seconds), results


def workload(cfg: Dict[str, object]) -> list:
    """The contract's deterministic request stream."""
    return build_workload(WorkloadSpec(
        n_requests=cfg["requests"], unique_designs=cfg["unique"],
        seed=cfg["seed"], bmc_depth=cfg["bmc_depth"],
        bmc_random_trials=cfg["bmc_random_trials"]))


def datagen_config(cfg: Dict[str, object], **knobs) -> DatagenConfig:
    return DatagenConfig(
        n_designs=cfg["designs"], bugs_per_design=cfg["bugs"],
        seed=cfg["seed"], bmc_depth=cfg["bmc_depth"],
        bmc_random_trials=cfg["bmc_random_trials"], **knobs)


def serve_config(cfg: Dict[str, object], **overrides) -> ServeConfig:
    knobs = dict(n_workers=cfg["workers"], backend="auto",
                 max_queue=max(cfg["requests"] * 2, 64),
                 max_batch=cfg["max_batch"],
                 batch_window_ms=cfg["window_ms"],
                 result_cache=False, seed=cfg["seed"])
    knobs.update(overrides)
    return ServeConfig(**knobs)


@contextmanager
def fresh_target(cfg: Dict[str, object], http: bool = False,
                 fleet: bool = False, **overrides):
    """A fresh service in process, behind a fresh localhost server
    (``http``), or as a router-managed fleet (``fleet``); yields what
    ``run_load`` drives."""
    config = serve_config(cfg, **overrides)
    if fleet:
        front = make_fleet(cfg["backends"], config)
    else:
        front = AssertService(config)
        if http:
            front = AssertHttpServer(front, HttpConfig())
    with front:
        yield front if isinstance(front, AssertService) \
            else AssertClient.for_server(front)


COUNTS = ("solved", "cache_hits", "deduped")
ROUTER_COUNTS = ("routed", "spillovers", "failovers", "ejections")


def counts(target) -> Dict[str, int]:
    """Service counters after a pass; over the wire they come from
    ``/metricsz`` (a router's exposition sums its backends and adds its
    own ``repro_router_*`` series)."""
    if isinstance(target, AssertService):
        stats = target.stats()
        return {name: getattr(stats, name) for name in COUNTS}
    parsed = parse_prometheus_text(target.metricsz())
    out = {name: int(parsed.value(f"repro_service_{name}_total") or 0)
           for name in COUNTS}
    for name in ROUTER_COUNTS:
        value = parsed.value(f"repro_router_{name}_total")
        if value is not None:
            out[f"router_{name}"] = int(value)
    return out


Pass = Tuple[LoadReport, Dict[str, object]]


def load_passes(cfg: Dict[str, object], requests: list,
                labels: Sequence[str], concurrency: Optional[int] = None,
                probe: Optional[Callable] = None, **target) -> List[Pass]:
    """Replay ``requests`` once per label against one fresh target; each
    pass's leg is its load report plus the service counters and
    ``probe(target)``'s fields."""
    passes = []
    with fresh_target(cfg, **target) as front:
        for label in labels:
            report = run_load(front, requests, label=label,
                              concurrency=concurrency or cfg["concurrency"])
            leg = {key: value for key, value in report.to_dict().items()
                   if key != "label"}
            leg.update(counts(front))
            if probe is not None:
                leg.update(probe(front))
            print(f"  {label:<12} {leg['seconds']:7.2f}s "
                  f"{leg['req_per_sec']:7.1f} req/s  "
                  f"p50 {leg['p50_ms']:7.1f}ms  p99 {leg['p99_ms']:7.1f}ms  "
                  f"errors {leg['errors']}  solved {leg['solved']}  "
                  f"hits {leg['cache_hits']}  deduped {leg['deduped']}")
            passes.append((report, leg))
    return passes


def bodies(report: LoadReport) -> List[Optional[str]]:
    return [None if r is None else r.to_json() for r in report.responses]


def same_bodies(*streams: List[Optional[str]]) -> bool:
    """Every response present and byte-identical across the streams."""
    first = streams[0]
    return all(body is not None for body in first) \
        and all(stream == first for stream in streams[1:])


def no_errors(passes: Sequence[Pass]) -> bool:
    return all(report.errors == 0 for report, _ in passes)


def best_legs(passes: Sequence[Pass]) -> Dict[str, object]:
    """Best-of-repeats: each side's least-disturbed pass, so scheduler
    noise does not masquerade as the cost being gated."""
    return {"best_p50_ms": min(leg["p50_ms"] for _, leg in passes),
            "best_req_per_sec": max(leg["req_per_sec"] for _, leg in passes),
            "passes": [leg for _, leg in passes]}


@contextmanager
def interpreter_leg():
    """The interpreter leg of a tier comparison, in this process and in
    any worker it forks.  The compile cache starts cold, so the generated
    tier could not run in it without building programs: the leg's fatal
    check is that it spent no time in the ``compile_program`` phase."""
    default_compile_cache().clear()
    with reference_tier():
        yield


def compile_program_us(profile: Optional[Dict[str, int]] = None) -> int:
    """``compile_program`` time in a ``solve_profile`` counter set (by
    default this process's)."""
    if profile is None:
        profile = metrics.profile_counters()
    return profile.get("compile_program_us", 0)


def write_report(path: Path, results: Dict[str, object]) -> None:
    report = {"host": {"python": platform.python_version(),
                       "platform": platform.platform(),
                       "cpus": available_cpus(),
                       "unix_time": int(time.time())},
              "contracts": results}
    path.write_text(json.dumps(report, indent=2) + "\n")


# -- the measure functions -----------------------------------------------------------


def measure_solve(cfg) -> Measured:
    """``solve_task`` over corpus designs, AST interpreter vs the compiled
    tier; one warm-up pass fills the compile and program caches."""
    seeds = CorpusGenerator(seed=cfg["seed"]).generate(cfg["designs"])
    tasks = [SolveTask(f"gate_{index}", s.source,
                       SolveOptions.for_design(
                           s, bmc_depth=cfg["bmc_depth"],
                           bmc_random_trials=cfg["bmc_random_trials"]),
                       cfg["seed"])
             for index, s in enumerate(seeds)]
    legs, runs = {}, {}
    for mode in ("interp", "compiled"):
        with (interpreter_leg() if mode == "interp" else nullcontext()):
            before = compile_program_us()
            warm = [solve_task(task).to_json() for task in tasks]
            seconds, runs[mode] = best_of(cfg["repeats"], lambda: [
                solve_task(task).to_json() for task in tasks])
        runs[mode].insert(0, warm)
        legs[mode] = {"seconds": round(seconds, 4),
                      "designs_per_sec": round(len(tasks) / seconds, 3),
                      "compile_program_us":
                          compile_program_us() - before}
    return Measured(
        legs,
        {"compiled/interp": ratio(legs["interp"]["seconds"],
                                  legs["compiled"]["seconds"])},
        {"bodies_identical_across_tiers":
            runs["interp"][0] == runs["compiled"][0],
         "bodies_stable_across_repeats": all(
            run == mode_runs[0] for mode_runs in runs.values()
            for run in mode_runs),
         "interp_leg_interpreted": legs["interp"]["compile_program_us"] == 0})


def measure_validate(cfg) -> Measured:
    """``validate_svas`` on the same oracle proposals, one shared batched
    check vs the per-proposal reference (one bounded check per proposal),
    on one worker; the compile cache starts cold in every pass."""
    designs = [d for d in CorpusGenerator(seed=cfg["seed"]).generate(
        cfg["designs"]) if compile_source(d.source).ok]
    proposals = [SvaOracle(StageContext(cfg["seed"], STAGE_NAME, unit).rng("sva"),
                           hallucination_rate=cfg["hallucination_rate"]
                           ).propose(design)
                 for design, unit in zip(designs, unit_ids(designs))]
    bmc = BmcConfig(depth=cfg["bmc_depth"],
                    random_trials=cfg["bmc_random_trials"])

    validators = {"per_proposal": _validate_svas_per_proposal,
                  "batched": validate_svas}

    def validate_all(mode: str) -> list:
        default_compile_cache().clear()
        return [(tuple(p.name for p in valid), rejected)
                for valid, rejected in (
                    validators[mode](design, props, bmc)
                    for design, props in zip(designs, proposals))]

    legs, verdicts = {}, []
    for mode in validators:
        seconds, runs = best_of(cfg["repeats"], lambda: validate_all(mode))
        verdicts.extend(runs)
        legs[mode] = {"seconds": round(seconds, 4),
                      "designs": len(designs),
                      "proposals": sum(len(p) for p in proposals),
                      "valid": sum(len(names) for names, _ in runs[0]),
                      "rejected": sum(rejected for _, rejected in runs[0])}
    return Measured(
        legs,
        {"batched/per_proposal": ratio(legs["per_proposal"]["seconds"],
                                       legs["batched"]["seconds"])},
        {"verdicts_identical": all(v == verdicts[0] for v in verdicts)})


def cache_passes(cfg, requests: list, prefix: str,
                 **target) -> Tuple[List[Pass], List[Pass]]:
    """``repeats`` fresh cache-on targets, each replaying the stream cold
    and then warm (every request a cache hit).  A warm pass lasts tens
    of milliseconds, so both sides are best-of, like every best-of."""
    cold, warm = [], []
    for _ in range(cfg["repeats"]):
        first, second = load_passes(
            cfg, requests, [f"{prefix}_cold", f"{prefix}_warm"],
            result_cache=True, **target)
        cold.append(first)
        warm.append(second)
    return cold, warm


def measure_serve(cfg) -> Measured:
    """Micro-batching and the result cache, in process: sequential vs
    concurrent clients with the cache off, then cold and warm passes of
    the same stream on cache-on services."""
    requests = workload(cfg)
    passes = (load_passes(cfg, requests, ["sequential"], concurrency=1)
              + load_passes(cfg, requests, ["batched"]))
    cold, warm = cache_passes(cfg, requests, "cache")
    (sequential, _), (batched, _) = passes
    legs = {report.label: leg for report, leg in passes}
    legs.update(cache_cold=best_legs(cold), cache_warm=best_legs(warm))
    return Measured(
        legs,
        {"batched/sequential": ratio(batched.req_per_sec,
                                     sequential.req_per_sec),
         "cache_warm/cache_cold": ratio(legs["cache_warm"]["best_req_per_sec"],
                                        legs["cache_cold"]["best_req_per_sec"])},
        {"bodies_identical": same_bodies(
            bodies(sequential), bodies(batched), *(bodies(r) for r, _ in warm)),
         "no_errors": no_errors(passes + cold + warm)})


def measure_http(cfg) -> Measured:
    """What the network edge costs: the stream in process vs through a
    localhost server, then the cache win through the transport."""
    requests = workload(cfg)
    passes = (load_passes(cfg, requests, ["inproc"])
              + load_passes(cfg, requests, ["http"], http=True))
    cold, warm = cache_passes(cfg, requests, "http", http=True)
    (inproc, _), (http, _) = passes
    legs = {report.label: leg for report, leg in passes}
    legs.update(http_cold=best_legs(cold), http_warm=best_legs(warm))
    return Measured(
        legs,
        {"http/inproc p50": ratio(http.p50_ms, inproc.p50_ms),
         "http_warm/http_cold": ratio(legs["http_warm"]["best_req_per_sec"],
                                      legs["http_cold"]["best_req_per_sec"])},
        {"bodies_identical": same_bodies(bodies(inproc), bodies(http)),
         "no_errors": no_errors(passes + cold + warm)})


def measure_fleet(cfg) -> Measured:
    """One server vs a router over ``backends`` identical ones, a cold
    and a steady pass each.  Each instance's result cache holds fewer
    entries than the stream has designs, so the lone server thrashes
    while each backend's ring share fits: the steady pass is gated."""
    requests = workload(cfg)
    cache = dict(result_cache=True, cache_entries=cfg["cache_entries"])
    passes = (load_passes(cfg, requests, ["single_cold", "single"],
                          http=True, **cache)
              + load_passes(cfg, requests, ["fleet_cold", "fleet"],
                            fleet=True, **cache))
    single, fleet = passes[1][0], passes[3][0]
    return Measured(
        {report.label: leg for report, leg in passes},
        {"fleet/single": ratio(fleet.req_per_sec, single.req_per_sec)},
        {"bodies_identical": same_bodies(*(bodies(r) for r, _ in passes)),
         "no_errors": no_errors(passes)})


def _trace_probe(client) -> Dict[str, object]:
    tracez = client.tracez()
    parsed = parse_prometheus_text(client.metricsz())
    return {"traces_retained": len(tracez["recent"]) + len(tracez["slowest"]),
            "solve_200s": parsed.value("repro_http_requests_total",
                                       handler="solve", code="200")}


def measure_obs(cfg) -> Measured:
    """Tracing off vs on through a localhost server, fresh per pass and
    alternating ``repeats`` times; the gate compares best p50s."""
    requests = workload(cfg)
    sides = {"untraced": [], "traced": []}
    try:
        for _ in range(cfg["repeats"]):
            for label, traced in (("untraced", False), ("traced", True)):
                obs_trace.configure(enabled=traced)
                obs_trace.reset()
                sides[label] += load_passes(
                    cfg, requests, [label], http=True,
                    probe=_trace_probe if traced else None)
    finally:
        obs_trace.configure(enabled=True)
        obs_trace.reset()
    every = sides["untraced"] + sides["traced"]
    traced = [leg for _, leg in sides["traced"]]
    legs = {label: best_legs(passes) for label, passes in sides.items()}
    return Measured(
        legs,
        {"traced/untraced p50": ratio(legs["traced"]["best_p50_ms"],
                                      legs["untraced"]["best_p50_ms"])},
        {"bodies_identical": same_bodies(*(bodies(r) for r, _ in every)),
         "no_errors": no_errors(every),
         "tracez_populated": max(leg["traces_retained"] for leg in traced) > 0,
         "metricsz_parses": all(leg["solve_200s"] is not None
                                for leg in traced)})


def _coverage_probe(client) -> Dict[str, object]:
    parsed = parse_prometheus_text(client.metricsz())
    return {"covz_retained": client.covz()["retained"],
            "coverage_toggles": parsed.value("repro_coverage_toggles_total")
            or 0.0}


def _without_coverage(report: LoadReport) -> List[Optional[str]]:
    """Bodies with the ``coverage`` block removed: what a coverage-off
    server answers for the same requests."""
    out = []
    for response in report.responses:
        if response is None:
            out.append(None)
            continue
        saved, response.coverage = response.coverage, None
        try:
            out.append(response.to_json())
        finally:
            response.coverage = saved
    return out


def _compile_program_probe(client) -> Dict[str, object]:
    """The server's ``compile_program`` time: this process's and its
    workers', as ``/metricsz`` totals them."""
    parsed = parse_prometheus_text(client.metricsz())
    return {"compile_program_us": int(parsed.value(
        "repro_solve_profile_compile_program_us") or 0)}


def _coverage_blocks(report: LoadReport) -> List[Optional[str]]:
    return [None if r is None or r.coverage is None
            else json.dumps(r.coverage, sort_keys=True)
            for r in report.responses]


def measure_cov(cfg) -> Measured:
    """Coverage collection off vs on through a localhost server, fresh
    per pass and alternating ``repeats`` times (best throughput gated),
    plus one coverage-on pass on the interpreter tier."""
    requests = workload(cfg)
    sides = {"coverage_off": [], "coverage_on": []}
    for _ in range(cfg["repeats"]):
        for label, coverage in (("coverage_off", False), ("coverage_on", True)):
            sides[label] += load_passes(
                cfg, requests, [label], http=True, coverage=coverage,
                probe=_coverage_probe if coverage else None)
    with interpreter_leg():
        before = compile_program_us()
        interp = load_passes(cfg, requests, ["interp"], http=True,
                             coverage=True, probe=_compile_program_probe)
    on = [leg for _, leg in sides["coverage_on"]]
    legs = {label: best_legs(passes) for label, passes in sides.items()}
    legs["interp"] = interp[0][1]
    return Measured(
        legs,
        {"coverage_on/off throughput": ratio(
            legs["coverage_on"]["best_req_per_sec"],
            legs["coverage_off"]["best_req_per_sec"])},
        {"bodies_identical": same_bodies(
            *(bodies(r) for r, _ in sides["coverage_off"]),
            *(_without_coverage(r) for r, _ in sides["coverage_on"])),
         "tiers_identical": same_bodies(
             _coverage_blocks(interp[0][0]),
             _coverage_blocks(sides["coverage_on"][-1][0])),
         "no_errors": no_errors(sides["coverage_off"] + sides["coverage_on"]
                                + interp),
         "interp_leg_interpreted":
             legs["interp"]["compile_program_us"] == before,
         "covz_populated": max(leg["covz_retained"] for leg in on) > 0,
         "coverage_on_metricsz": max(leg["coverage_toggles"]
                                     for leg in on) > 0})


def measure_store(cfg) -> Measured:
    """The datagen pipeline twice against one ``DiskStore``: cold, then
    warm.  The in-memory compile cache is cleared before each run, so the
    warm win is the store's."""
    legs = {}
    with tempfile.TemporaryDirectory(prefix="gates_store_") as root:
        config = datagen_config(cfg, n_workers=cfg["workers"],
                                store=StoreConfig(path=root))
        for label in ("cold", "warm"):
            default_compile_cache().clear()
            seconds, (bundle,) = best_of(1, lambda: run_pipeline(config))
            store = bundle.stats["store"]
            legs[label] = {"seconds": round(seconds, 4),
                           "memo_hits": store["stage_memo_hits"],
                           "memo_misses": store["stage_memo_misses"],
                           "fingerprint": bundle.fingerprint()}
    return Measured(
        legs,
        {"warm/cold": ratio(legs["cold"]["seconds"], legs["warm"]["seconds"])},
        {"fingerprints_identical":
            legs["cold"]["fingerprint"] == legs["warm"]["fingerprint"],
         "warm_fully_memoized": legs["warm"]["memo_misses"] == 0})


def measure_eval(cfg) -> Measured:
    """pass@k over SVA-Eval against one ``DiskStore``: a cold run, warm
    re-runs (best of 3: the warm side is milliseconds), then the same
    eval over ``POST /v1/eval`` on a server sharing the store."""
    cases = build_benchmark(run_pipeline(datagen_config(cfg)),
                            include_human=True).cases
    model = make_baseline(cfg["model"], seed=0)
    config = EvalConfig(n_samples=cfg["n_samples"], seed=cfg["seed"] + 1)
    with tempfile.TemporaryDirectory(prefix="gates_eval_") as root:
        store = StoreConfig(path=root).make_store()

        def evaluate():
            return run_eval(model, cases, config=config, store=store)

        cold_s, (cold,) = best_of(1, evaluate)
        warm_s, warm = best_of(3, evaluate)
        service = AssertService(ServeConfig(store=StoreConfig(path=root)))
        service.register_model(cfg["model"], model)
        with AssertHttpServer(service, HttpConfig(port=0)) as server:
            wire = AssertClient.for_server(server).eval(
                EvalRequest(cfg["model"], cases, config=config))
            stats = service.stats()
    legs = {"cold": {"seconds": round(cold_s, 4), **cold.stats},
            "warm": {"seconds": round(warm_s, 4), **warm[0].stats},
            "wire": {"evals": stats.evals, "eval_cases": stats.eval_cases,
                     "eval_memo_hits": stats.eval_memo_hits},
            "cases": len(cases), "pass_at_1": cold.pass_at(1)}
    return Measured(
        legs, {"warm/cold": ratio(cold_s, warm_s)},
        {"reports_identical": all(r.to_json() == cold.to_json() for r in warm),
         "warm_fully_memoized": all(r.stats["computed"] == 0 for r in warm),
         "wire_identical": wire.to_json() == cold.to_json(),
         "server_fully_memoized": stats.eval_memo_hits == len(cases)})


def measure_determinism(cfg) -> Measured:
    """The full dataset bundle serially and over a process pool, on both
    simulation tiers: scheduling must never reach the bytes."""
    legs, checks = {}, {}
    for mode in ("compiled", "interp"):
        bundles = []
        for knobs in (dict(n_workers=1),
                      dict(n_workers=cfg["workers"], backend="process")):
            with (interpreter_leg() if mode == "interp" else nullcontext()):
                bundles.append(run_pipeline(datagen_config(cfg, **knobs)))
        serial, pooled = bundles
        legs[mode] = {"serial": serial.fingerprint(),
                      "process": pooled.fingerprint(),
                      "compile_program_us": [
                          compile_program_us(b.stats["solve_profile"])
                          for b in bundles]}
        checks[f"fingerprints_identical_{mode}"] = \
            legs[mode]["serial"] == legs[mode]["process"]
    checks["interp_leg_interpreted"] = \
        legs["interp"]["compile_program_us"] == [0, 0]
    return Measured(legs, {}, checks)


# -- the table -----------------------------------------------------------------------

_LOAD = dict(requests=32, unique=6, concurrency=16, workers=4, max_batch=32,
             window_ms=10.0, seed=2025, bmc_depth=10, bmc_random_trials=24)

CONTRACTS: Dict[str, Contract] = {c.name: c for c in (
    Contract("solve",
             dict(designs=12, repeats=2, seed=2025, bmc_depth=10,
                  bmc_random_trials=24),
             measure_solve, {"compiled/interp": at_least(2.0)},
             ("bodies_identical_across_tiers",
              "bodies_stable_across_repeats", "interp_leg_interpreted")),
    Contract("validate",
             dict(designs=24, repeats=2, seed=2025, hallucination_rate=0.15,
                  bmc_depth=10, bmc_random_trials=24),
             measure_validate, {"batched/per_proposal": at_least(1.10)},
             ("verdicts_identical",)),
    Contract("serve", dict(_LOAD, repeats=3), measure_serve,
             {"batched/sequential": at_least(2.0),
              "cache_warm/cache_cold": at_least(5.0)},
             ("bodies_identical", "no_errors")),
    Contract("http", dict(_LOAD, repeats=3), measure_http,
             {"http/inproc p50": at_most(2.0),
              "http_warm/http_cold": at_least(5.0)},
             ("bodies_identical", "no_errors")),
    Contract("fleet",
             dict(requests=120, unique=18, backends=3, cache_entries=9,
                  concurrency=12, workers=1, max_batch=8, window_ms=5.0,
                  seed=2025, bmc_depth=12, bmc_random_trials=48),
             measure_fleet, {"fleet/single": at_least(2.0)},
             ("bodies_identical", "no_errors")),
    Contract("obs", dict(_LOAD, repeats=3), measure_obs,
             {"traced/untraced p50": at_most(1.15)},
             ("bodies_identical", "no_errors", "tracez_populated",
              "metricsz_parses")),
    Contract("cov", dict(_LOAD, repeats=3), measure_cov,
             {"coverage_on/off throughput": at_least(0.85)},
             ("bodies_identical", "tiers_identical", "no_errors",
              "interp_leg_interpreted", "covz_populated",
              "coverage_on_metricsz")),
    Contract("store",
             dict(designs=16, bugs=2, seed=2025, bmc_depth=10,
                  bmc_random_trials=24, workers=1),
             measure_store, {"warm/cold": at_least(5.0)},
             ("fingerprints_identical", "warm_fully_memoized")),
    Contract("eval",
             dict(designs=48, bugs=4, seed=2025, bmc_depth=8,
                  bmc_random_trials=16, model="GPT-4", n_samples=400),
             measure_eval, {"warm/cold": at_least(5.0)},
             ("reports_identical", "warm_fully_memoized", "wire_identical",
              "server_fully_memoized")),
    Contract("determinism",
             dict(designs=16, workers=4, bugs=2, seed=2025, bmc_depth=6,
                  bmc_random_trials=8),
             measure_determinism, {},
             ("fingerprints_identical_compiled",
              "fingerprints_identical_interp", "interp_leg_interpreted")),
)}


# -- the driver ----------------------------------------------------------------------


def failed_entry(name: str, error: str) -> Dict[str, object]:
    result = judge(CONTRACTS[name], Measured({}, {}, {}))
    result["error"] = error
    return result


def judge_here(name: str) -> Dict[str, object]:
    """Measure and judge one contract in this process; a measure that
    raises fails its contract, with the error reported."""
    contract = CONTRACTS[name]
    print(f"gates: {name} {json.dumps(contract.config)}", flush=True)
    try:
        result = judge(contract, contract.measure(dict(contract.config)))
    except Exception as exc:  # noqa: BLE001 - reported, never raised
        traceback.print_exc()
        result = failed_entry(name, f"{type(exc).__name__}: {exc}")
    shown = ", ".join(f"{key} {value} {result['bound'][key]}"
                      for key, value in result["ratio"].items())
    failed = [key for key, held in result["checks"].items() if not held]
    print(f"gates: {name} {'ok' if result['ok'] else 'FAILED'}"
          + (f" ({shown})" if shown else "")
          + (f"; failed checks: {', '.join(failed)}" if failed else "")
          + (f"; {result['error']}" if "error" in result else ""), flush=True)
    return result


def judge_in_child(name: str) -> Dict[str, object]:
    """:func:`judge_here` in a fresh interpreter, as each CI leg runs a
    contract: no contract then measures a process that earlier ones
    warmed (compile, program and result caches, trace and coverage
    buffers, global tracing state)."""
    with tempfile.TemporaryDirectory(prefix="gates_") as root:
        output = Path(root) / "report.json"
        subprocess.run([sys.executable, str(Path(__file__).resolve()), name,
                        "--output", str(output)], check=False)
        try:
            return json.loads(output.read_text())["contracts"][name]
        except (OSError, ValueError, KeyError) as exc:
            return failed_entry(name, f"no report from the child: {exc!r}")


def run(names: Sequence[str]) -> Dict[str, object]:
    """Judge each named contract; several run one interpreter each."""
    judge_one = judge_here if len(names) == 1 else judge_in_child
    return {name: judge_one(name) for name in names}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("contracts", nargs="*", metavar="contract",
                        help=f"contracts to run (default: all of "
                             f"{', '.join(CONTRACTS)})")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="report path (default: BENCH_gates.json at the "
                             "repo root)")
    args = parser.parse_args(argv)
    unknown = [name for name in args.contracts if name not in CONTRACTS]
    if unknown:
        parser.error(f"unknown contract(s): {', '.join(unknown)}")
    names = list(dict.fromkeys(args.contracts)) or list(CONTRACTS)
    results = run(names)
    write_report(args.output, results)
    failed = [name for name, result in results.items() if not result["ok"]]
    if failed:
        print(f"gates: FAILED {', '.join(failed)} -> {args.output}")
        return 1
    print(f"gates: {len(names)} contract(s) hold -> {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
