"""The benchmark's four workloads.

Each workload has two halves:

- ``plan_<name>(seed, seconds)`` runs in the driver process.  It turns
  the benchmark seed into plain-data inputs (JSON-able jobs), one job per
  repetition.  Every repetition later runs in a fresh interpreter, so
  process-global caches (the compile cache, the per-design compiled
  programs) start empty each time, as they do for a user.
- ``run_<name>(job, rep)`` runs in that fresh interpreter.  It sets up
  (imports, service start, training), marks the set-up finished, then
  runs the timed part and fills :class:`Rep` with measurements plus a
  digest of the program's outputs.

Work is sized from ``seconds`` with per-workload nominal rates measured
on a 2-CPU x86 host, so a run does about ``seconds`` of timed work there
(``datagen`` and ``solve_cold`` do more, see their planners); inputs are
a pure function of ``(seed, seconds)``, which is what lets the exact
counts and digests repeat bit for bit.

The per-design cost differs by up to 40x between corpus template
families, so inputs drawn at random made run-to-run spread depend mostly
on which families the seed happened to draw.  The solve workloads are
therefore stratified by family: every repetition covers every registered
family equally, and the seed picks the instances.  ``datagen`` keeps the
program's own weighted family sampling and instead draws its pipeline
seeds from a pool vetted to cost about the median (:func:`plan_datagen`).
"""

from __future__ import annotations

import hashlib
import random
import threading
import time
from typing import Dict, List

#: Nominal timed work per second on the reference host.
DATAGEN_DESIGNS_PER_S = 3.4
SOLVE_COLD_REQ_PER_S = 12.5
SOLVE_HOT_REQ_PER_S = 130.0
EVAL_PASSES_PER_S = 0.35

#: Workloads whose timings are normalized for host speed (probe.py).
#: solve_hot is left raw: most of its latency is the service's 10 ms
#: batch window and socket waits, which do not scale with core speed.
CPU_BOUND = ("datagen", "solve_cold", "eval")

CLIENTS = 2
REPS = 3
#: Eight cheap template families, used where a run needs a few designs
#: whose set-up cost must not swing with the seed: the solve_hot hot set
#: (its untimed warm-up fills the cache) and the eval training bundle.
#: The seed still picks the instances.
CHEAP_FAMILIES = ("alu", "comparator", "decoder", "fifo", "gray_counter",
                  "lfsr", "parity", "pwm")
EVAL_DATAGEN_DESIGNS = 12
EVAL_N_SAMPLES = 20

#: Designs per ``run_pipeline`` call: the scale of the datagen baseline
#: in ROADMAP.md and of ``examples/quickstart_eval.py``.
DATAGEN_DESIGNS = 24
#: Calls per run (one per repetition), whatever ``seconds`` says: fewer
#: left the designs/s spread between seeds above a tenth.
DATAGEN_MIN_CALLS = 4
#: Pipeline seeds whose 24-design call costs within a tenth of the median
#: of 40 candidates, chosen by ``pool.py``; a run draws its calls here.
DATAGEN_SEED_POOL = (
    29846114, 76033655, 184143801, 328964110, 352121028, 567041140,
    708308679, 842340115, 1149562940, 1404790098, 1522021314, 1533974899,
    1554266301, 1725049102, 1745764009, 2079945083,
)


def sub_seed(*parts) -> int:
    """A 31-bit seed derived from the benchmark seed and a label path."""
    text = "/".join(str(part) for part in parts)
    return int(hashlib.sha256(text.encode("utf-8")).hexdigest()[:8], 16) \
        & 0x7FFFFFFF


def digest_of(texts) -> str:
    sha = hashlib.sha256()
    for text in texts:
        sha.update(text.encode("utf-8"))
        sha.update(b"\n")
    return sha.hexdigest()


def families() -> List[str]:
    from repro.corpus.generator import resolve_families

    return list(resolve_families(None, None)[0])


# -- planning (driver process) ------------------------------------------------


def plan(workload: str, seed: int, seconds: int) -> List[dict]:
    return PLANS[workload](seed, seconds)


def plan_datagen(seed: int, seconds: int) -> List[dict]:
    """One ``DATAGEN_DESIGNS``-design pipeline over every family per
    repetition, as a user builds a dataset.

    The cost of such a call swings from 0.7x to 1.4x the median with the
    designs and mutants its pipeline seed draws, so four random calls
    made designs/s differ by a fifth between benchmark seeds.  The seed
    therefore samples calls from :data:`DATAGEN_SEED_POOL`, pipeline
    seeds vetted to cost about the median.
    """
    calls = max(DATAGEN_MIN_CALLS,
                round(seconds * DATAGEN_DESIGNS_PER_S / DATAGEN_DESIGNS))
    chosen = random.Random(sub_seed(seed, "datagen")).sample(
        DATAGEN_SEED_POOL, min(calls, len(DATAGEN_SEED_POOL)))
    return [{"workload": "datagen", "seed": pipeline_seed}
            for pipeline_seed in chosen]


def _solve_payload(design, hints: bool) -> dict:
    from repro.serve.service import hint_to_tuple

    return {"source": design.source,
            "hints": ([list(hint_to_tuple(h)) for h in design.meta.sva_hints]
                      if hints else None)}


def _distinct_design(generator, family: str, seen: set):
    for _ in range(64):
        design = generator.generate_one(family=family)
        if design.source not in seen:
            seen.add(design.source)
            return design
    raise RuntimeError(f"family {family!r} yields no new design")


def plan_solve_cold(seed: int, seconds: int) -> List[dict]:
    from repro.corpus.generator import CorpusGenerator

    names = families()
    # At least three requests per family per repetition: with fewer, the
    # median request latency moved with the instances a seed drew.
    slots = max(3, round(seconds * SOLVE_COLD_REQ_PER_S
                         / (REPS * len(names))))
    generator = CorpusGenerator(seed=sub_seed(seed, "solve_cold", "corpus"))
    order = random.Random(sub_seed(seed, "solve_cold", "order"))
    seen: set = set()
    jobs = []
    for rep in range(REPS):
        requests = []
        for slot in range(slots):
            shuffled = list(enumerate(names))
            order.shuffle(shuffled)
            for index, name in shuffled:
                design = _distinct_design(generator, name, seen)
                # A fixed quarter carries no hints, so the service mines
                # invariants itself; the quarter rotates over families.
                hints = (index + slot + rep) % 4 != 3
                requests.append(_solve_payload(design, hints))
        jobs.append({"workload": "solve_cold", "requests": requests})
    return jobs


def plan_solve_hot(seed: int, seconds: int) -> List[dict]:
    from repro.corpus.generator import CorpusGenerator

    generator = CorpusGenerator(seed=sub_seed(seed, "solve_hot", "corpus"))
    seen: set = set()
    hot = [_solve_payload(_distinct_design(generator, name, seen), True)
           for name in CHEAP_FAMILIES]
    per_rep = max(len(hot), round(seconds * SOLVE_HOT_REQ_PER_S / REPS))
    jobs = []
    for rep in range(REPS):
        stream = random.Random(sub_seed(seed, "solve_hot", "stream", rep))
        jobs.append({"workload": "solve_hot", "hot": hot,
                     "stream": [stream.randrange(len(hot))
                                for _ in range(per_rep)]})
    return jobs


def plan_eval(seed: int, seconds: int) -> List[dict]:
    # At least three passes per repetition: with five a run, host-speed
    # noise moved cases/s between seeds by a tenth.
    passes = max(3 * REPS, round(seconds * EVAL_PASSES_PER_S))
    per_rep = [passes // REPS + (1 if r < passes % REPS else 0)
               for r in range(REPS)]
    return [{"workload": "eval",
             "datagen_seed": sub_seed(seed, "eval", "datagen"),
             "eval_seed": sub_seed(seed, "eval", "sampling"),
             "passes": count} for count in per_rep]


PLANS = {"datagen": plan_datagen, "solve_cold": plan_solve_cold,
         "solve_hot": plan_solve_hot, "eval": plan_eval}


# -- execution (fresh interpreter per repetition) -------------------------------


class Rep:
    """What one repetition measured."""

    def __init__(self, tracer=None, on_ready=None):
        #: The layer tracer of a traced repetition, else ``None``.
        self._tracer = tracer
        self._on_ready = on_ready
        self.ready = 0.0  # time.monotonic() when set-up finished
        self.timed_at = 0.0  # time.monotonic() when the timed part began
        self.timed_s = 0.0
        self.items = 0
        self.attempted = 0
        self.failed = 0
        #: ``(time.monotonic() at start, seconds)`` per unit of work.
        self.latencies: List[tuple] = []
        self.digest = ""
        self.counts: Dict[str, int] = {}
        self.setup_parts: Dict[str, float] = {}
        self.extra: Dict[str, float] = {}
        self.errors: List[str] = []

    def mark_ready(self) -> None:
        """Set-up is over: keep the layer times it took, then trace the
        timed part from zero."""
        self.ready = time.monotonic()
        if self._on_ready is not None:
            self._on_ready()
        if self._tracer is not None:
            self.setup_parts = {layer: stats["total_s"] for layer, stats
                                in self._tracer.snapshot().items()
                                if stats["calls"]}
            self._tracer.reset()

    def start_timing(self) -> float:
        self.timed_at = time.monotonic()
        return time.perf_counter()

    def finish_trace(self) -> None:
        if self._tracer is not None:
            self._tracer.uninstall()
            self.extra["layers"] = self._tracer.snapshot()

    def to_dict(self) -> dict:
        return {key: value for key, value in self.__dict__.items()
                if not key.startswith("_")}


def run(job: dict, tracer, on_ready) -> Rep:
    """Run one repetition; ``on_ready`` is called when set-up ends."""
    rep = Rep(tracer, on_ready)
    RUNNERS[job["workload"]](job, rep)
    return rep


def _profile():
    from repro.engine import metrics

    return metrics.profile_counters()


def _profile_delta(before: Dict[str, int], rep: Rep) -> None:
    after = _profile()
    for key in ("simulate_us", "monitor_us", "compile_program_us"):
        rep.extra[f"profile.{key}"] = after.get(key, 0) - before.get(key, 0)


def run_datagen(job: dict, rep: Rep) -> None:
    from repro.datagen import pipeline

    config = pipeline.DatagenConfig(n_designs=DATAGEN_DESIGNS,
                                    seed=job["seed"], n_workers=1,
                                    backend="serial")
    rep.mark_ready()
    profile_before = _profile()
    rep.attempted = config.n_designs
    started = rep.start_timing()
    at = time.monotonic()
    try:
        bundle = pipeline.run_pipeline(config)
    except Exception as exc:  # noqa: BLE001 - counted, not raised
        bundle = None
        rep.failed = config.n_designs
        rep.errors.append(f"{type(exc).__name__}: {exc}")
    rep.timed_s = time.perf_counter() - started
    rep.finish_trace()
    if bundle is None:
        return
    rep.latencies.append((at, rep.timed_s))
    rep.items = config.n_designs
    _profile_delta(profile_before, rep)
    cache = bundle.stats["compile_cache"]
    rep.digest = bundle.fingerprint()
    rep.counts["compile_misses"] = cache["misses"]
    rep.extra["compile_hits"] = cache["hits"]
    rep.extra["stage_s"] = {name: stage["seconds"] for name, stage
                            in bundle.stats["engine"]["stages"].items()}


def _solve_request(payload: dict, index: int):
    from repro.serve import SolveOptions, SolveRequest

    hints = payload["hints"]
    options = (SolveOptions() if hints is None
               else SolveOptions(hints=tuple(tuple(h) for h in hints)))
    return SolveRequest(payload["source"], options,
                        request_id=f"req_{index:05d}")


def _closed_loop(target, requests, rep: Rep) -> list:
    """``CLIENTS`` callers, each blocking on its reply before sending the
    next request; returns responses in request order."""
    from repro.serve import ServiceOverloaded

    responses: list = [None] * len(requests)
    latencies: list = [None] * len(requests)
    lock = threading.Lock()
    cursor = [0]
    retries = [0]

    def client() -> None:
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(requests):
                return
            at, started = time.monotonic(), time.perf_counter()
            try:
                while True:
                    try:
                        response = target.solve(requests[index])
                        break
                    except ServiceOverloaded:
                        with lock:
                            retries[0] += 1
                        time.sleep(0.002)
            except Exception as exc:  # noqa: BLE001 - counted, not raised
                with lock:
                    rep.errors.append(f"{type(exc).__name__}: {exc}")
                continue
            latencies[index] = (at, time.perf_counter() - started)
            responses[index] = response
            if response.status != "ok":
                with lock:
                    rep.errors.append(f"request {index}: status "
                                      f"{response.status}")

    threads = [threading.Thread(target=client, name=f"bench-client-{i}")
               for i in range(CLIENTS)]
    started = rep.start_timing()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    rep.timed_s = time.perf_counter() - started
    rep.latencies = [lat for lat in latencies if lat is not None]
    rep.attempted = len(requests)
    rep.items = len(rep.latencies)
    # Failed: no ok response, plus every 429 the clients had to retry.
    rep.failed = retries[0] + sum(
        1 for response in responses
        if response is None or response.status != "ok")
    return responses


def _histogram(registry, name: str):
    for family in registry.families():
        if family.name == name:
            return family
    raise KeyError(name)


def _service_probe(service) -> dict:
    stats = service.stats()
    queue_wait = _histogram(service.metrics,
                            "repro_service_queue_wait_seconds")
    request = _histogram(service.metrics, "repro_service_request_seconds")
    return {"solved": stats.solved, "submitted": stats.submitted,
            "deduped": stats.deduped, "cache_hits": stats.cache_hits,
            "cache_misses": stats.cache_misses, "batches": stats.batches,
            "batched": stats.batched_requests,
            "queue_wait_sum": queue_wait.sum,
            "queue_wait_count": queue_wait.count,
            "request_sum": request.sum, "request_count": request.count,
            "queue_wait_p50": queue_wait.quantile(0.5)}


def _service_delta(before: dict, after: dict) -> dict:
    delta = {key: after[key] - before[key] for key in before
             if key != "queue_wait_p50"}
    delta["queue_wait_p50"] = after["queue_wait_p50"]
    return delta


def _finish_solve(rep: Rep, responses, before: dict, after: dict,
                  cache_before: dict, cache_after: dict) -> None:
    rep.finish_trace()
    rep.digest = digest_of(r.to_json() if r is not None else "missing"
                           for r in responses)
    rep.counts["compile_misses"] = (cache_after["misses"]
                                    - cache_before["misses"])
    rep.extra["compile_hits"] = cache_after["hits"] - cache_before["hits"]
    rep.extra["service"] = _service_delta(before, after)


def run_solve_cold(job: dict, rep: Rep) -> None:
    from repro.serve import AssertService, ServeConfig
    from repro.verilog.compile import compile_cache_counters

    requests = [_solve_request(payload, i)
                for i, payload in enumerate(job["requests"])]
    service = AssertService(ServeConfig(n_workers=1, backend="serial"))
    service.start()
    try:
        rep.mark_ready()
        before = _service_probe(service)
        cache_before = compile_cache_counters()
        profile_before = _profile()
        responses = _closed_loop(service, requests, rep)
        after = _service_probe(service)
        cache_after = compile_cache_counters()
        _profile_delta(profile_before, rep)
        _finish_solve(rep, responses, before, after, cache_before,
                      cache_after)
    finally:
        service.close()
    service_delta = rep.extra["service"]
    if service_delta["solved"] != rep.attempted:
        rep.errors.append(f"solved {service_delta['solved']} of "
                          f"{rep.attempted} distinct requests")
    if service_delta["cache_hits"] != 0:
        rep.errors.append(f"{service_delta['cache_hits']} cache hits on "
                          f"distinct designs")


def run_solve_hot(job: dict, rep: Rep) -> None:
    from repro.serve import (
        AssertClient,
        AssertHttpServer,
        AssertService,
        HttpConfig,
        ServeConfig,
    )
    from repro.verilog.compile import compile_cache_counters

    hot = [_solve_request(payload, i) for i, payload in enumerate(job["hot"])]
    requests = [hot[index] for index in job["stream"]]
    service = AssertService(ServeConfig(n_workers=1, backend="serial"))
    server = AssertHttpServer(service, HttpConfig(host="127.0.0.1", port=0))
    server.start()
    try:
        client = AssertClient.for_server(server, timeout_s=60.0)
        warm = [client.solve(request) for request in hot]
        if any(response.status != "ok" for response in warm):
            rep.errors.append("warm-up solve failed")
        rep.mark_ready()
        before = _service_probe(service)
        cache_before = compile_cache_counters()
        profile_before = _profile()
        responses = _closed_loop(client, requests, rep)
        after = _service_probe(service)
        cache_after = compile_cache_counters()
        _profile_delta(profile_before, rep)
        _finish_solve(rep, responses, before, after, cache_before,
                      cache_after)
    finally:
        server.close()
    service_delta = rep.extra["service"]
    # Concurrent repeats of one design share a single cache lookup (batch
    # dedup), so hits count keys, not requests: a miss is the failure.
    if service_delta["solved"] != 0 or service_delta["cache_misses"] != 0:
        rep.errors.append(f"{service_delta['solved']} solves and "
                          f"{service_delta['cache_misses']} cache misses "
                          f"after warm-up")


def run_eval(job: dict, rep: Rep) -> None:
    from repro.core.api import AssertSolverPipeline, PipelineConfig
    from repro.eval import runner

    pipeline = AssertSolverPipeline(PipelineConfig(
        n_designs=EVAL_DATAGEN_DESIGNS, seed=job["datagen_seed"],
        n_samples=EVAL_N_SAMPLES, template_families=CHEAP_FAMILIES,
        n_workers=1, backend="serial"))
    pipeline.train()
    cases = pipeline.build_benchmark().cases
    config = pipeline.config.eval_config(seed=job["eval_seed"])
    models = (pipeline.base_model, pipeline.sft_model, pipeline.assertsolver)
    rep.mark_ready()
    reports: Dict[str, list] = {}
    started = rep.start_timing()
    for _ in range(job["passes"]):
        # One pass is Table III's evaluation: every checkpoint over every
        # case.  Its wall time is the latency sample (per run_eval call,
        # samples of the three checkpoints mix and the median jumps
        # between them).
        at, t0 = time.monotonic(), time.perf_counter()
        complete = True
        for model in models:
            rep.attempted += len(cases)
            try:
                report = runner.run_eval(model, cases, config)
            except Exception as exc:  # noqa: BLE001 - counted, not raised
                rep.failed += len(cases)
                rep.errors.append(f"{type(exc).__name__}: {exc}")
                complete = False
                continue
            rep.items += len(cases)
            reports.setdefault(model.name, []).append(report)
        if complete:
            rep.latencies.append((at, time.perf_counter() - t0))
    rep.timed_s = time.perf_counter() - started
    rep.finish_trace()
    texts = []
    for name, runs in reports.items():
        first = runs[0].to_json()
        if any(other.to_json() != first for other in runs[1:]):
            rep.errors.append(f"{name}: reports differ between passes")
        texts.append(first)
    rep.digest = digest_of(texts)
    rep.counts["cases"] = len(cases)


RUNNERS = {"datagen": run_datagen, "solve_cold": run_solve_cold,
           "solve_hot": run_solve_hot, "eval": run_eval}
