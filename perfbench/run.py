"""AssertSolver benchmark: one command, four workloads.

    python3 perfbench/run.py --workload datagen --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``datagen`` (the Section-II data
factory), ``solve_cold`` (in-process service, every request a distinct
design), ``solve_hot`` (HTTP service, every request a cache hit) and
``eval`` (pass@k of Table III's three checkpoints over SVA-Eval).

Each repetition runs in a fresh interpreter (``rep.py``).  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` every repetition runs twice, untraced and then traced by
``tracer.py``, and the last line carries the per-layer metrics plus the
tracing overhead.  Either way the run checks the program's outputs: each
repetition's output digest and exact counts must equal the traced twin's
and, when ``expected.json`` records this (workload, seconds, seed), the
recorded values.  ``--record`` writes this run's values into
``expected.json`` instead of checking them.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import probe
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
REP_TIMEOUT_S = 150

#: Layers reported with ``.calls`` next to ``.self_s``.
CALL_COUNTED = ("verilog.compile_source", "sva.bounded_check",
                "sva.bounded_check_batch", "engine.map", "serve.solve_task")
#: Layers reported with ``.self_s`` only.
SELF_ONLY = ("verilog.parse_module", "sva.compile_with_sva",
             "sva.mine_invariant_hints", "bugs.inject_many",
             "bugs.classify_relation", "oracles.propose",
             "corpus.corpus_unit", "datagen.run_pipeline",
             "datagen.stage2_unit", "datagen.validate_svas",
             "serve.codecs.request_from_json",
             "serve.codecs.response_to_json",
             "serve.codecs.response_from_json", "model.enumerate_repairs",
             "model.case_context", "model.features_matrix", "model.generate",
             "eval.run_eval", "eval.report")
STAGES = ("corpus", "stage1", "stage2", "split", "stage3")
#: Counts that must repeat bit for bit; the traced-only ones exist only
#: when the layer wrappers are installed.
TRACED_COUNTS = ("sva.bounded_check.calls", "sva.bounded_check.stimuli",
                 "sva.bounded_check.kills", "sva.bounded_check_batch.stimuli",
                 "model.candidates")


def quantile(values: List[float], q: float) -> float:
    """q-quantile of a non-empty list, interpolating linearly between
    the two nearest ranks (numpy's default), which is steadier than the
    nearest rank when a run has only a few dozen samples."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def run_rep(job: dict, traced: bool) -> dict:
    """Start one repetition in a fresh interpreter and wait for it."""
    payload = json.dumps(dict(job, trace=traced))
    spawned = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "rep.py")],
                          input=payload, capture_output=True, text=True,
                          cwd=str(ROOT), timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{job['workload']} repetition exited with "
                           f"code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["spawned"] = spawned
    result["setup_s"] = result["ready"] - spawned
    return result


def merge_layers(reps: List[dict]) -> Dict[str, dict]:
    merged: Dict[str, dict] = {}
    for rep in reps:
        for layer, stats in rep["extra"]["layers"].items():
            into = merged.setdefault(layer, {"calls": 0, "total_s": 0.0,
                                             "self_s": 0.0, "counts": {},
                                             "samples": []})
            into["calls"] += stats["calls"]
            into["total_s"] += stats["total_s"]
            into["self_s"] += stats["self_s"]
            into["samples"].extend(stats["samples"])
            for key, value in stats["counts"].items():
                into["counts"][key] = into["counts"].get(key, 0) + value
    return merged


def exact_counts(reps: List[dict], layers: Dict[str, dict] = None) -> dict:
    counts: Dict[str, int] = {}
    for rep in reps:
        for key, value in rep["counts"].items():
            counts[key] = counts.get(key, 0) + value
    if layers is not None:
        single = layers["sva.bounded_check"]
        counts["sva.bounded_check.calls"] = single["calls"]
        counts["sva.bounded_check.stimuli"] = single["counts"].get(
            "stimuli", 0)
        counts["sva.bounded_check.kills"] = single["counts"].get("kills", 0)
        counts["sva.bounded_check_batch.stimuli"] = \
            layers["sva.bounded_check_batch"]["counts"].get("stimuli", 0)
        counts["model.candidates"] = \
            layers["model.enumerate_repairs"]["counts"].get("candidates", 0)
    return counts


def normalized(rep: dict) -> dict:
    """The repetition's timings in reference-core seconds (probe.py)."""
    samples = rep["probe"]
    return {
        "setup_s": probe.normalize(samples, rep["spawned"], rep["ready"]),
        "timed_s": probe.normalize(samples, rep["timed_at"],
                                   rep["timed_at"] + rep["timed_s"]),
        "latencies_s": [probe.normalize(samples, at, at + seconds)
                        for at, seconds in rep["latencies"]],
    }


def end_to_end(reps: List[dict], normalize_setup: bool,
               normalize_timed: bool) -> Dict[str, float]:
    def timings(rep: dict) -> dict:
        raw = {"setup_s": rep["setup_s"], "timed_s": rep["timed_s"],
               "latencies_s": [seconds for _, seconds in rep["latencies"]]}
        norm = normalized(rep)
        out = dict(norm if normalize_timed else raw)
        out["setup_s"] = (norm if normalize_setup else raw)["setup_s"]
        return out

    timed = [timings(rep) for rep in reps]
    latencies = [lat for timing in timed for lat in timing["latencies_s"]]
    items = sum(rep["items"] for rep in reps)
    return {
        "setup_s": statistics.median(t["setup_s"] for t in timed),
        "throughput": items / sum(t["timed_s"] for t in timed),
        "latency_p50_ms": 1000.0 * quantile(latencies, 0.50),
        "latency_p90_ms": 1000.0 * quantile(latencies, 0.90),
        "peak_rss_mb": statistics.median(rep["rss_mb"] for rep in reps),
    }


def per_layer(plain: List[dict], traced: List[dict],
              normalize: bool) -> Dict[str, float]:
    layers = merge_layers(traced)
    wall = sum(rep["timed_s"] for rep in traced)
    out: Dict[str, float] = {}
    for layer in CALL_COUNTED:
        out[f"{layer}.self_s"] = layers[layer]["self_s"]
        out[f"{layer}.calls"] = layers[layer]["calls"]
    for layer in SELF_ONLY:
        out[f"{layer}.self_s"] = layers[layer]["self_s"]
    counts = exact_counts(traced, layers)
    for key in TRACED_COUNTS:
        out[key] = counts[key]
    single = layers["sva.bounded_check"]["counts"]
    checked = single.get("mutant_checks", 0)
    out["sva.bounded_check.kill_ratio"] = (single.get("kills", 0) / checked
                                           if checked else 0.0)

    def extra_sum(key: str) -> float:
        return sum(rep["extra"].get(key, 0) for rep in traced)

    out["sim.simulate_s"] = extra_sum("profile.simulate_us") / 1e6
    out["sva.monitor_s"] = extra_sum("profile.monitor_us") / 1e6
    out["sim.compile_program_s"] = \
        extra_sum("profile.compile_program_us") / 1e6
    misses = counts.get("compile_misses", 0)
    hits = extra_sum("compile_hits")
    out["verilog.compile_cache.misses"] = misses
    out["verilog.compile_cache.hit_ratio"] = (hits / (hits + misses)
                                              if hits + misses else 0.0)

    for stage in STAGES:
        if stage == "split":
            value = layers["datagen.split"]["total_s"]
        else:
            value = sum(rep["extra"].get("stage_s", {}).get(stage, 0.0)
                        for rep in traced)
        out[f"datagen.stage.{stage}.s"] = value
    for part in ("model.pretrain", "model.train_sft", "model.train_dpo"):
        values = [rep["setup_parts"][part] for rep in traced
                  if part in rep["setup_parts"]]
        out[f"{part}.s"] = statistics.median(values) if values else 0.0

    out.update(serve_metrics(traced, layers))
    def timed(rep: dict) -> float:
        return normalized(rep)["timed_s"] if normalize else rep["timed_s"]

    out["trace.overhead_ratio"] = (sum(timed(rep) for rep in traced)
                                   / sum(timed(rep) for rep in plain))
    out["trace.attributed_ratio"] = sum(
        stats["self_s"] for stats in layers.values()) / wall
    return out


def serve_metrics(traced: List[dict], layers: Dict[str, dict]
                  ) -> Dict[str, float]:
    """Queue, batch, cache and transport figures of the solve workloads
    (all 0 elsewhere), read from the service's own counters and
    histograms."""
    names = ("serve.queue_wait_p50_ms", "serve.queue_wait_mean_ms",
             "serve.batch_size_mean", "serve.dedup_ratio",
             "serve.cache.hit_ratio", "serve.http.transport_ms",
             "trace.latency_accounted_ratio")
    deltas = [rep["extra"]["service"] for rep in traced
              if "service" in rep["extra"]]
    if not deltas:
        return dict.fromkeys(names, 0.0)

    def total(key: str) -> float:
        return sum(delta[key] for delta in deltas)

    latencies = [seconds for rep in traced for _, seconds in rep["latencies"]]
    client_mean = statistics.mean(latencies)
    queue_wait = total("queue_wait_sum") / max(1, total("queue_wait_count"))
    service_mean = total("request_sum") / max(1, total("request_count"))
    transport = client_mean - service_mean
    # Compute a request waited for: the wall time of the engine map that
    # served its batch, weighted by the requests each map served.
    maps = layers["engine.map"]["samples"]
    served = sum(units for _, units in maps)
    compute = (sum(wall * units for wall, units in maps) / served
               if served else 0.0)
    lookups = total("cache_hits") + total("cache_misses")
    return {
        "serve.queue_wait_p50_ms": 1000.0 * statistics.median(
            delta["queue_wait_p50"] for delta in deltas),
        "serve.queue_wait_mean_ms": 1000.0 * queue_wait,
        "serve.batch_size_mean": total("batched") / max(1, total("batches")),
        "serve.dedup_ratio": total("deduped") / max(1, total("submitted")),
        "serve.cache.hit_ratio": total("cache_hits") / lookups
        if lookups else 0.0,
        "serve.http.transport_ms": 1000.0 * transport,
        "trace.latency_accounted_ratio":
            (queue_wait + compute + transport) / client_mean,
    }


def print_layer_table(traced: List[dict]) -> None:
    layers = merge_layers(traced)
    wall = sum(rep["timed_s"] for rep in traced)
    print(f"layer self time over {wall:.3f} s of traced wall time:")
    for layer, stats in sorted(layers.items(),
                               key=lambda item: -item[1]["self_s"]):
        if stats["calls"]:
            print(f"  {layer:34s} {stats['self_s']:9.4f} s "
                  f"{100.0 * stats['self_s'] / wall:6.2f} %  "
                  f"{stats['calls']:7d} calls")


def check(workload: str, seed: int, seconds: int, digest: str,
          counts: dict, record: bool) -> List[str]:
    """Compare against ``expected.json`` (or record into it)."""
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    slot = expected.setdefault(workload, {}).setdefault(str(seconds), {})
    if record:
        entry = slot.setdefault(str(seed), {"counts": {}})
        entry["digest"] = digest
        entry["counts"].update(counts)
        EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True)
                            + "\n")
        return []
    entry = slot.get(str(seed))
    if entry is None:
        return []
    problems = []
    if entry["digest"] != digest:
        problems.append(f"output digest {digest} != recorded "
                        f"{entry['digest']}")
    for key, value in counts.items():
        if key in entry["counts"] and entry["counts"][key] != value:
            problems.append(f"{key} = {value} != recorded "
                            f"{entry['counts'][key]}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("datagen", "solve_cold", "solve_hot",
                                 "eval"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="write this run's digest and exact counts to "
                             "expected.json instead of checking them")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    jobs = workloads.plan(args.workload, args.seed, args.seconds)
    plain = [run_rep(job, traced=False) for job in jobs]
    traced = ([run_rep(job, traced=True) for job in jobs]
              if args.trace else [])

    problems = [error for rep in plain + traced for error in rep["errors"]]
    for rep, twin in zip(plain, traced):
        if twin["digest"] != rep["digest"]:
            problems.append("traced output differs from untraced output")
        if twin["counts"] != rep["counts"]:
            problems.append(f"traced counts {twin['counts']} != untraced "
                            f"{rep['counts']}")
    digest = workloads.digest_of(rep["digest"] for rep in plain)
    counts = exact_counts(plain, merge_layers(traced) if traced else None)
    problems += check(args.workload, args.seed, args.seconds, digest,
                      counts, args.record)

    attempted = sum(rep["attempted"] for rep in plain + traced)
    failed = sum(rep["failed"] for rep in plain + traced)
    normalize = args.workload in workloads.CPU_BOUND
    if args.trace:
        print_layer_table(traced)
        values = per_layer(plain, traced, normalize)
    else:
        # Set-up is CPU-bound in every workload and always normalized.
        values = end_to_end(plain, normalize_setup=True,
                            normalize_timed=normalize)
        raw = end_to_end(plain, normalize_setup=False, normalize_timed=False)
        print("raw (not normalized): " + ", ".join(
            f"{name}={value:.6g}" for name, value in raw.items()))
    for problem in problems:
        print(f"perfbench: FAIL {problem}", file=sys.stderr)
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} digest={digest} "
          f"counts={json.dumps(counts, sort_keys=True)}")
    # BENCHMARK.json names the metrics and units; print exactly those.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {entry["name"]: {"value": values[entry["name"]],
                               "unit": entry["unit"]}
               for entry in spec["per_layer" if args.trace
                                 else "end_to_end"]}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
