"""Serving layer: service, micro-batcher, result cache, loadgen.

Covers the edge cases the serving contract promises:

- queue-full backpressure raises ``ServiceOverloaded`` instead of
  queueing unboundedly;
- identical requests produce byte-identical responses, cached or not;
- the batcher flushes on batch size, on window timeout, and at once
  (``idle``) when arrivals do not predict a batchmate inside the window;
- malformed Verilog yields a structured ``compile_error`` response, and
  the worker keeps serving afterwards;
- micro-batching beats the sequential one-at-a-time baseline and a
  100%-repeat workload is served dramatically faster from the cache
  (the bench's acceptance criteria, smoke-checked here at small scale).
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import knobs
from repro.corpus.generator import CorpusGenerator
from repro.obs.metrics import parse_prometheus_text
from repro.serve import (
    AssertService,
    ResultCache,
    ServeConfig,
    ServiceClosed,
    ServiceOverloaded,
    SolveOptions,
    SolveRequest,
    WorkloadSpec,
    build_workload,
    run_load,
    solve_task,
)
from repro.serve.service import SolveTask
from repro.verilog.compile import default_compile_cache

MINI_SOURCE = """
module mini (
  input clk,
  input rst_n,
  input a,
  input b,
  output wire y
);
  assign y = a & b;
endmodule
"""

#: Literals that used to escape ``compile_source`` as OverflowError,
#: MemoryError and ValueError, failing every future of their batch.
HOSTILE_LITERALS = ("99999999999999999999999999999999999999999999999999'h1",
                    "999999999999999999'h1", "1000000000'h1", "\u00b2")

#: Cheap service settings shared by most tests: tiny BMC budget, serial
#: engine, wide-open queue.
FAST = dict(bmc_depth=6, bmc_random_trials=8)


def fast_request(source: str, **overrides) -> SolveRequest:
    options = dict(FAST)
    options.update(overrides)
    return SolveRequest(source, SolveOptions(**options))


@pytest.fixture(scope="module")
def tiny_workload():
    """12 requests over 3 unique corpus designs, small BMC budget."""
    return build_workload(WorkloadSpec(n_requests=12, unique_designs=3,
                                       seed=11, bmc_depth=6,
                                       bmc_random_trials=8))


class TestBackpressure:
    def test_queue_full_raises_overloaded(self):
        service = AssertService(ServeConfig(max_queue=3))
        futures = []
        try:
            # Not started: nothing drains, so the bounded queue must fill.
            for _ in range(3):
                futures.append(service.submit(fast_request(MINI_SOURCE)))
            with pytest.raises(ServiceOverloaded):
                service.submit(fast_request(MINI_SOURCE))
            assert service.stats().rejected == 1
            assert service.stats().submitted == 3
            # Starting the consumer drains the accepted requests.
            service.start()
            for future in futures:
                assert future.result(timeout=60).ok
        finally:
            service.close()

    def test_submit_after_close_raises(self):
        service = AssertService(ServeConfig())
        service.close()
        with pytest.raises(ServiceClosed):
            service.submit(fast_request(MINI_SOURCE))

    def test_close_drains_accepted_requests(self):
        service = AssertService(ServeConfig(batch_window_ms=50))
        future = service.submit(fast_request(MINI_SOURCE))
        service.start()
        service.close()
        assert future.result(timeout=5).ok


class TestDeterminismAndCache:
    def test_same_request_byte_identical_with_cache(self):
        with AssertService(ServeConfig(result_cache=True)) as service:
            first = service.solve(fast_request(MINI_SOURCE), timeout=60)
            second = service.solve(fast_request(MINI_SOURCE), timeout=60)
            stats = service.stats()
        assert second is first  # served straight from the result cache
        assert second.to_json() == first.to_json()
        assert stats.cache_hits == 1
        assert stats.solved == 1

    def test_cached_equals_recomputed(self):
        request = fast_request(MINI_SOURCE)
        with AssertService(ServeConfig(result_cache=True)) as cached_svc:
            cached = cached_svc.solve(request, timeout=60)
        with AssertService(ServeConfig(result_cache=False)) as plain_svc:
            fresh_a = plain_svc.solve(request, timeout=60)
            fresh_b = plain_svc.solve(request, timeout=60)
            assert plain_svc.stats().solved == 2  # really recomputed
        assert fresh_a.to_json() == fresh_b.to_json() == cached.to_json()

    def test_request_id_does_not_fork_cache(self):
        a = SolveRequest(MINI_SOURCE, SolveOptions(**FAST), request_id="x")
        b = SolveRequest(MINI_SOURCE, SolveOptions(**FAST), request_id="y")
        assert a.cache_key() == b.cache_key()

    def test_options_fork_cache_key(self):
        a = fast_request(MINI_SOURCE, bmc_depth=6)
        b = fast_request(MINI_SOURCE, bmc_depth=7)
        assert a.cache_key() != b.cache_key()

    def test_result_cache_lru_eviction(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"
        cache.put("c", 3)           # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.evictions == 1

    def test_solve_task_is_pure(self):
        request = fast_request(MINI_SOURCE)
        task = SolveTask(key=request.cache_key(),
                         design_source=request.design_source,
                         options=request.options, seed=2025)
        assert solve_task(task).to_json() == solve_task(task).to_json()


class TestCacheHitsAtSubmit:
    """A cached response resolves inside submit(): no queue slot, no
    timer entry, no batch window, and each request counts once."""

    def test_repeats_count_one_hit_each(self):
        with AssertService(ServeConfig(batch_window_ms=50)) as service:
            first = service.solve(fast_request(MINI_SOURCE), timeout=60)
            before = service.stats()
            repeats = [service.solve(fast_request(MINI_SOURCE), timeout=60)
                       for _ in range(5)]
            after = service.stats()
        assert before.cache_misses == 1 and before.cache_hits == 0
        assert after.cache_hits == 5
        assert after.cache_misses == 1
        assert after.batches == before.batches  # no batcher hop
        assert after.submitted == after.completed == 6
        assert all(r.to_json() == first.to_json() for r in repeats)

    def test_hit_resolves_at_submit_without_queue_or_timer(self):
        # max_batch=1: the warm-up miss flushes at once; the window only
        # proves that nothing below waits for it.
        service = AssertService(ServeConfig(max_batch=1,
                                            batch_window_ms=5000))
        try:
            assert service.solve(fast_request(MINI_SOURCE), timeout=60).ok
            batches = service.stats().batches
            seen = []
            future = service.submit(fast_request(MINI_SOURCE,
                                                 deadline_ms=60_000.0))
            future.add_done_callback(lambda _: seen.append(service.stats()))
            assert future.done()
            stats = service.stats()
            assert stats.batches == batches
            assert stats.queue_depth == 0 and stats.inflight == 0
            assert service._timer._heap == []  # no deadline entry
            # The callback ran at once and saw its request counted.
            assert seen and seen[0].completed == seen[0].submitted == 2
        finally:
            service.close()

    def test_hit_resolves_before_start(self, tmp_path):
        from repro.store import StoreConfig

        config = ServeConfig(store=StoreConfig(path=tmp_path))
        with AssertService(config) as first:
            original = first.solve(fast_request(MINI_SOURCE), timeout=60)
        service = AssertService(config)  # never started
        try:
            future = service.submit(fast_request(MINI_SOURCE))
            assert future.done()
            assert future.result().to_json() == original.to_json()
            stats = service.stats()
            assert stats.cache_store_hits == 1 and stats.cache_misses == 0
            assert stats.queue_depth == 0
        finally:
            service.close()

    def test_flush_recheck_counts_a_key_filled_meanwhile(self):
        # Both submits miss (nothing is cached yet); max_batch=1 puts
        # them in separate batches, and the second batch's re-check finds
        # the response the first one cached.
        service = AssertService(ServeConfig(max_batch=1, batch_window_ms=0))
        futures = [service.submit(fast_request(MINI_SOURCE))
                   for _ in range(2)]
        service.start()
        try:
            responses = [f.result(timeout=60) for f in futures]
            stats = service.stats()
        finally:
            service.close()
        assert responses[0].to_json() == responses[1].to_json()
        assert stats.solved == 1
        assert stats.cache_hits == 1 and stats.cache_misses == 1

    def test_rechecked_duplicates_count_once(self):
        # max_batch=2 with a window too long to expire: the first batch
        # computes both keys; the second holds two duplicate waiters of
        # a key it re-checks filled, so they are two cache hits and no
        # dedup.
        service = AssertService(ServeConfig(max_batch=2,
                                            batch_window_ms=5000))
        other = fast_request(MINI_SOURCE, bmc_depth=5)
        futures = [service.submit(r) for r in (
            fast_request(MINI_SOURCE), other,
            fast_request(MINI_SOURCE), fast_request(MINI_SOURCE))]
        service.start()
        try:
            assert all(f.result(timeout=60).ok for f in futures)
            stats = service.stats()
        finally:
            service.close()
        assert stats.timeouts == stats.cancelled == 0
        assert (stats.solved, stats.cache_hits, stats.deduped) == (2, 2, 0)
        assert stats.solved + stats.cache_hits + stats.deduped \
            == stats.submitted == 4

    def test_deduped_misses_each_count_once(self):
        config = ServeConfig(max_batch=4, batch_window_ms=5000)
        service = AssertService(config)
        futures = [service.submit(fast_request(MINI_SOURCE))
                   for _ in range(4)]
        service.start()
        try:
            for future in futures:
                assert future.result(timeout=60).ok
            stats = service.stats()
        finally:
            service.close()
        assert stats.solved == 1 and stats.deduped == 3
        assert stats.cache_misses == 4 and stats.cache_hits == 0


def queued_then_started(config: ServeConfig, requests) -> tuple:
    """Submit ``requests`` to a service that is not yet started, so they
    all wait in the queue when the batcher opens its first batch; then
    start it, and return the service and the futures."""
    service = AssertService(config)
    futures = [service.submit(request) for request in requests]
    return service.start(), futures


class TestBatcherFlush:
    def test_flush_on_batch_size(self, tiny_workload):
        config = ServeConfig(max_batch=4, result_cache=False)
        service, futures = queued_then_started(config, tiny_workload[:8])
        with service:
            for future in futures:
                assert future.result(timeout=120).ok
            stats = service.stats()
        # 8 requests queued before the batcher starts: only size flushes.
        assert stats.flush_size == 2
        assert stats.flush_timeout == 0
        assert stats.max_batch == 4

    def test_flush_on_timeout(self, tiny_workload):
        config = ServeConfig(max_batch=64, batch_window_ms=40,
                             result_cache=False)
        service, futures = queued_then_started(config, tiny_workload[:3])
        with service:
            for future in futures:
                assert future.result(timeout=120).ok
            stats = service.stats()
        # 3 requests queued before the batcher starts are taken without
        # a wait, so it has seen no arrival gap and holds the whole
        # window, and can never reach max_batch=64: the window must
        # flush.
        assert stats.flush_timeout >= 1
        assert stats.flush_size == 0
        assert stats.batched_requests == 3

    def test_batch_dedups_identical_requests(self):
        config = ServeConfig(max_batch=8, result_cache=False)
        request = fast_request(MINI_SOURCE)
        service, futures = queued_then_started(config, [request] * 8)
        with service:
            responses = [f.result(timeout=120) for f in futures]
            stats = service.stats()
        assert stats.solved == 1          # one engine unit for the batch
        assert stats.deduped == 7
        assert len({r.to_json() for r in responses}) == 1


class TestMalformedInput:
    def test_compile_error_is_structured(self):
        with AssertService(ServeConfig()) as service:
            response = service.solve("utter garbage ;;;", timeout=60)
        assert not response.ok
        assert response.status == "compile_error"
        assert response.error  # carries the compiler diagnostics
        assert response.proposals == ()

    def test_worker_survives_malformed_request(self, tiny_workload):
        with AssertService(ServeConfig()) as service:
            bad = service.solve("module broken (", timeout=60)
            good = service.solve(tiny_workload[0], timeout=120)
            stats = service.stats()
        assert bad.status == "compile_error"
        assert good.ok and good.proposals
        assert stats.compile_errors == 1
        assert stats.errors == 0  # structured response, not a failed future

    def test_malformed_mixed_into_batch(self, tiny_workload):
        config = ServeConfig(max_batch=4, batch_window_ms=5000)
        with AssertService(config) as service:
            futures = [service.submit(tiny_workload[0]),
                       service.submit("not verilog"),
                       service.submit(tiny_workload[1]),
                       service.submit("also not verilog")]
            responses = [f.result(timeout=120) for f in futures]
        assert [r.status for r in responses] == [
            "ok", "compile_error", "ok", "compile_error"]


    def test_hostile_literals_fail_only_their_own_request(self):
        hostile = [MINI_SOURCE.replace("a & b", f"a & {literal}")
                   for literal in HOSTILE_LITERALS]
        service, futures = queued_then_started(
            ServeConfig(), [fast_request(source)
                            for source in [MINI_SOURCE] + hostile])
        with service:
            responses = [f.result(timeout=120) for f in futures]
            stats = service.stats()
        assert stats.batches == 1
        assert [r.status for r in responses] == (
            ["ok"] + ["compile_error"] * len(hostile))
        assert stats.errors == 0


class TestHintsAndMining:
    def test_hintless_design_mines_proposals(self):
        with AssertService(ServeConfig()) as service:
            response = service.solve(fast_request(MINI_SOURCE), timeout=60)
        assert response.ok
        assert response.proposals
        assert all(p.origin == "mined" for p in response.proposals)
        assert all(0.0 < p.score <= 1.0 for p in response.proposals)

    def test_mining_disabled_returns_empty_ok(self):
        request = fast_request(MINI_SOURCE, mine_hints=False)
        with AssertService(ServeConfig()) as service:
            response = service.solve(request, timeout=60)
        assert response.ok
        assert response.proposals == ()

    def test_corpus_hints_validate_and_score(self, tiny_workload):
        with AssertService(ServeConfig()) as service:
            response = service.solve(tiny_workload[0], timeout=120)
        assert response.ok
        assert response.proposals  # template hints hold on their design
        assert all(p.origin == "hint" for p in response.proposals)
        scores = [p.score for p in response.proposals]
        assert scores == sorted(scores, reverse=True)

    def test_hallucinated_proposals_rejected(self, tiny_workload):
        source = tiny_workload[0].design_source
        base = tiny_workload[0].options
        distorted = SolveOptions(hints=base.hints, hallucination_rate=1.0,
                                 bmc_depth=8, bmc_random_trials=16)
        with AssertService(ServeConfig()) as service:
            response = service.solve(SolveRequest(source, distorted),
                                     timeout=120)
        assert response.ok
        assert response.rejected > 0


class TestLoadgen:
    def test_workload_is_deterministic(self):
        spec = WorkloadSpec(n_requests=10, unique_designs=3, seed=42)
        first = build_workload(spec)
        second = build_workload(spec)
        assert [r.cache_key() for r in first] == \
               [r.cache_key() for r in second]
        assert [r.design_source for r in first] == \
               [r.design_source for r in second]

    def test_workload_repeats_designs(self):
        requests = build_workload(WorkloadSpec(n_requests=16,
                                               unique_designs=3, seed=42))
        assert len({r.cache_key() for r in requests}) <= 3

    def test_run_load_reports_latency(self, tiny_workload):
        with AssertService(ServeConfig()) as service:
            report = run_load(service, tiny_workload[:4], concurrency=2,
                              label="smoke")
        assert report.n_requests == 4
        assert report.errors == 0
        assert report.req_per_sec > 0
        assert 0 < report.p50_ms <= report.p95_ms <= report.max_ms
        assert all(r is not None and r.ok for r in report.responses)


class TestServingWins:
    """Small-scale smoke checks of the bench acceptance criteria."""

    @pytest.fixture(scope="class")
    def workload(self):
        return build_workload(WorkloadSpec(n_requests=24, unique_designs=3,
                                           seed=17, bmc_depth=6,
                                           bmc_random_trials=8))

    def config(self, **overrides) -> ServeConfig:
        settings = dict(max_queue=64, max_batch=24, batch_window_ms=15,
                        backend="auto", n_workers=4)
        settings.update(overrides)
        return ServeConfig(**settings)

    def test_batched_throughput_beats_sequential(self, workload):
        with AssertService(self.config(result_cache=False)) as service:
            sequential = run_load(service, workload, concurrency=1,
                                  label="sequential")
            seq_solved = service.stats().solved
        with AssertService(self.config(result_cache=False)) as service:
            batched = run_load(service, workload, concurrency=24,
                               label="batched")
            batch_stats = service.stats()
        # Structural win first (not wall-clock-flaky): 24 sequential
        # solves collapse to one per unique design per batch.
        assert seq_solved == len(workload)
        assert batch_stats.solved < len(workload) // 2
        assert batch_stats.deduped > 0
        # And the acceptance-criterion throughput ratio.
        assert batched.req_per_sec >= 2.0 * sequential.req_per_sec
        # Responses stay byte-identical across serving modes.
        assert [r.to_json() for r in batched.responses] == \
               [r.to_json() for r in sequential.responses]

    def test_repeat_workload_served_from_cache(self, workload):
        # Start from a genuinely cold process state: earlier tests leave
        # the process-wide compile cache (and with it the compiled-tier
        # program cache) warm for this very workload, which would deflate
        # the cold pass the 5x floor is measured against.
        default_compile_cache().clear()
        with AssertService(self.config(result_cache=True)) as service:
            cold = run_load(service, workload, concurrency=24, label="cold")
            warm = run_load(service, workload, concurrency=24, label="warm")
            stats = service.stats()
        # The repeat pass recomputes nothing...
        assert stats.solved <= len({r.cache_key() for r in workload})
        assert stats.cache_hits > 0
        # ...and is dramatically faster (acceptance floor: 5x).
        assert warm.req_per_sec >= 5.0 * cold.req_per_sec
        assert [r.to_json() for r in warm.responses] == \
               [r.to_json() for r in cold.responses]


class TestConfigValidation:
    def test_bad_backend_rejected(self):
        from repro.core.api import PipelineConfig
        from repro.datagen.pipeline import DatagenConfig
        from repro.engine import ExecutionEngine

        with pytest.raises(ValueError):
            ServeConfig(backend="quantum")
        # The thread backend is gone: every entry point refuses it.
        for make in (DatagenConfig, PipelineConfig, ServeConfig,
                     ExecutionEngine):
            with pytest.raises(ValueError, match="backend"):
                make(backend="thread")

    @pytest.mark.parametrize("field,value", [
        ("max_queue", 0), ("max_batch", 0), ("n_workers", 0),
        ("cache_entries", 0), ("batch_window_ms", -1.0)])
    def test_bad_numbers_rejected(self, field, value):
        with pytest.raises(ValueError):
            ServeConfig(**{field: value})

    def test_bad_options_rejected_at_submit(self):
        service = AssertService(ServeConfig())
        try:
            with pytest.raises(ValueError):
                service.submit(SolveRequest(
                    MINI_SOURCE, SolveOptions(hallucination_rate=2.0)))
        finally:
            service.close()

    @pytest.mark.parametrize("hints", [
        ((b"name", "y == 1", None, 0, "msg"),),   # non-str name
        (("name", "y == 1", None, "0", "msg"),),  # non-int delay
        (("name", "y == 1"),),                    # wrong arity
        (42,),                                    # not a tuple at all
    ])
    def test_malformed_hints_rejected_before_enqueue(self, hints):
        # Un-canonicalizable hints must fail loudly at submit(), never
        # inside the batcher thread where they would strand the future.
        service = AssertService(ServeConfig())
        try:
            with pytest.raises(ValueError):
                service.submit(SolveRequest(MINI_SOURCE,
                                            SolveOptions(hints=hints)))
        finally:
            service.close()

    def test_close_fails_unserved_futures(self):
        # Never started: close() must fail queued futures, not hang them.
        service = AssertService(ServeConfig())
        future = service.submit(fast_request(MINI_SOURCE))
        service.close()
        with pytest.raises(ServiceClosed):
            future.result(timeout=5)
        assert service.stats().errors == 1

    def test_pipeline_config_plumbs_serve_config(self):
        from repro.core.api import PipelineConfig

        config = PipelineConfig(n_workers=3, seed=99)
        serve = config.serve(max_batch=5)
        assert serve.n_workers == 3
        assert serve.seed == 99
        assert serve.max_batch == 5
        service = config.make_service()
        try:
            assert service.config.n_workers == 3
        finally:
            service.close()


class TestEngineWarm:
    def test_warm_is_idempotent_and_serial_safe(self):
        from repro.engine import ExecutionEngine

        with ExecutionEngine(n_workers=1, backend="serial") as engine:
            engine.warm()
            engine.warm()
            assert engine.map(_identity, [1, 2, 3], stage="id") == [1, 2, 3]

    def test_warm_actually_spawns_process_workers(self):
        # Executors spawn workers lazily on submit; warm() must force
        # the spawn, or the first request still pays pool startup.
        from repro.engine import ExecutionEngine

        with ExecutionEngine(n_workers=2, backend="process") as engine:
            engine.warm()
            assert len(engine._pool._processes) >= 1
            assert engine.map(_identity, [6], stage="id") == [6]


def _identity(x):
    return x


class TestBatcherUnit:
    """MicroBatcher in isolation, with an instrumented flush."""

    def test_flush_error_does_not_kill_consumer(self):
        import queue as queue_mod

        from repro.serve.batcher import MicroBatcher

        source: "queue_mod.Queue" = queue_mod.Queue()
        seen = []

        def flush(batch, reason):
            if len(seen) == 0:
                seen.append("boom")
                raise RuntimeError("first flush explodes")
            seen.append(list(batch))

        batcher = MicroBatcher(source, flush, max_batch=2, window_s=0.01)
        batcher.start()
        try:
            source.put("a")
            source.put("b")
            deadline = time.monotonic() + 5
            while batcher.stats.batches < 1 and time.monotonic() < deadline:
                time.sleep(0.005)
            source.put("c")
            deadline = time.monotonic() + 5
            while batcher.stats.batches < 2 and time.monotonic() < deadline:
                time.sleep(0.005)
        finally:
            batcher.stop()
        assert batcher.stats.flush_errors == 1
        assert ["c"] in seen  # the consumer survived and kept flushing

    def test_invalid_parameters(self):
        import queue as queue_mod

        from repro.serve.batcher import MicroBatcher

        with pytest.raises(ValueError):
            MicroBatcher(queue_mod.Queue(), lambda b, r: None, max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(queue_mod.Queue(), lambda b, r: None, window_s=-1)

    @staticmethod
    def timed_batcher(window_s: float, max_batch: int = 64):
        """A batcher over a fresh queue whose items are their put times;
        each flush records ``(reason, [seconds each item waited])``."""
        import queue as queue_mod

        from repro.serve.batcher import MicroBatcher

        source: "queue_mod.Queue" = queue_mod.Queue()
        flushed = []

        def flush(batch, reason):
            now = time.monotonic()
            flushed.append((reason, [now - put for put in batch]))

        return source, flushed, MicroBatcher(source, flush,
                                             max_batch=max_batch,
                                             window_s=window_s)

    @staticmethod
    def await_batches(batcher, count: int) -> None:
        deadline = time.monotonic() + 5
        while batcher.stats.batches < count and time.monotonic() < deadline:
            time.sleep(0.002)
        assert batcher.stats.batches == count

    def test_lone_item_after_an_idle_gap_flushes_at_once(self):
        from repro.serve.batcher import GAP_SMOOTHING

        window = 0.1
        source, flushed, batcher = self.timed_batcher(window)
        batcher.start()
        try:
            # Two items 10 ms apart: the batcher waits for the second,
            # so it has seen a gap far inside the window.
            source.put(time.monotonic())
            time.sleep(0.01)
            source.put(time.monotonic())
            self.await_batches(batcher, 1)
            # An idle spell long enough that the EWMA puts the next
            # arrival past the window, then a lone item.
            time.sleep(2 * window / GAP_SMOOTHING)
            source.put(time.monotonic())
            self.await_batches(batcher, 2)
        finally:
            batcher.stop()
        assert [len(waits) for _, waits in flushed] == [2, 1]
        reason, (waited,) = flushed[1]
        assert reason == "idle"
        assert waited < window / 4
        assert batcher.stats.flush_reasons["idle"] >= 1

    def test_burst_within_the_window_coalesces_and_dedups(self):
        config = ServeConfig(max_batch=8, batch_window_ms=300,
                             result_cache=False)
        service = AssertService(config)
        # Hold the first batch in its flush until the burst is queued.
        release = threading.Event()
        flush = service._flush

        def gated_flush(batch, reason):
            release.wait(10)
            flush(batch, reason)

        service._flush = gated_flush  # the batcher binds it at start()
        with service.start():
            lone = service.submit(fast_request(MINI_SOURCE, bmc_depth=5))
            deadline = time.monotonic() + 5
            while not service.stats().batches and \
                    time.monotonic() < deadline:
                time.sleep(0.002)
            request = fast_request(MINI_SOURCE)
            futures = [service.submit(request) for _ in range(8)]
            release.set()
            assert lone.result(timeout=60).ok
            responses = [f.result(timeout=120) for f in futures]
            stats = service.stats()
        assert stats.batches == 2 and stats.flush_size == 1
        assert stats.solved == 2 and stats.deduped == 7
        assert len({r.to_json() for r in responses}) == 1

    def test_no_item_waits_longer_than_the_window(self):
        window = 0.05
        source, flushed, batcher = self.timed_batcher(window)
        # Items queued before start() are taken without a wait, so the
        # batcher has seen no arrival gap and holds the whole window.
        for _ in range(3):
            source.put(time.monotonic())
        batcher.start()
        try:
            self.await_batches(batcher, 1)
            # Then a steady stream 2 ms apart.
            for _ in range(100):
                source.put(time.monotonic())
                time.sleep(0.002)
        finally:
            batcher.stop()
        assert flushed[0][0] == "timeout"
        waits = [wait for _, batch in flushed[1:] for wait in batch]
        assert len(waits) == 100
        assert max(waits) < window + 0.03  # scheduling slack only

    def test_service_stats_count_every_flush_reason(self):
        from dataclasses import fields

        from repro.serve.batcher import FLUSH_REASONS
        from repro.serve.service import ServiceStats

        names = {f.name for f in fields(ServiceStats)}
        assert {f"flush_{reason}" for reason in FLUSH_REASONS} <= names


class TestMining:
    def test_mine_invariant_hints_shape(self):
        from repro.sva.mine import mine_invariant_hints
        from repro.verilog.compile import compile_source

        design = compile_source(MINI_SOURCE).design
        hints = mine_invariant_hints(design)
        assert [h.name for h in hints] == ["mined_y_def"]
        assert hints[0].consequent == "y == (a & b)"

    def test_mining_requires_clock_convention(self):
        from repro.sva.mine import mine_invariant_hints
        from repro.verilog.compile import compile_source

        source = ("module nc (input a, input b, output wire y);\n"
                  "  assign y = a | b;\nendmodule\n")
        design = compile_source(source).design
        assert mine_invariant_hints(design) == []

    def test_mined_proposals_round_trip_via_corpus(self):
        """Mined hints on a corpus design validate like template hints."""
        design = CorpusGenerator(seed=5).generate_one("counter")
        request = SolveRequest(design.source,
                               SolveOptions(mine_hints=True, **FAST))
        with AssertService(ServeConfig()) as service:
            response = service.solve(request, timeout=120)
        assert response.ok  # mined or empty, but never a crash


class TestDeadlines:
    """``SolveOptions.deadline_ms``: a request that exceeds its deadline —
    waiting in the queue or riding a batch — resolves to a structured
    ``timeout`` response instead of blocking ``result()`` forever."""

    def test_expired_in_queue_resolves_to_timeout(self):
        service = AssertService(ServeConfig(batch_window_ms=1.0))
        request = fast_request(MINI_SOURCE, deadline_ms=10.0)
        future = service.submit(request)
        time.sleep(0.05)  # expires while the consumer is not yet running
        try:
            service.start()
            response = future.result(timeout=10)
        finally:
            service.close()
        assert response.status == "timeout"
        assert not response.ok
        assert "deadline" in response.error
        assert response.request_key == request.cache_key()
        assert service.stats().timeouts == 1

    def test_generous_deadline_succeeds(self):
        with AssertService(ServeConfig()) as service:
            response = service.solve(
                fast_request(MINI_SOURCE, deadline_ms=60_000.0), timeout=60)
            assert response.ok
            assert service.stats().timeouts == 0

    def test_deadline_is_not_part_of_the_content_key(self):
        tight = fast_request(MINI_SOURCE, deadline_ms=5.0)
        loose = fast_request(MINI_SOURCE, deadline_ms=5_000.0)
        plain = fast_request(MINI_SOURCE)
        assert tight.cache_key() == loose.cache_key() == plain.cache_key()

    def test_timeout_responses_are_not_cached(self):
        service = AssertService(ServeConfig(batch_window_ms=1.0))
        expired = service.submit(fast_request(MINI_SOURCE, deadline_ms=5.0))
        time.sleep(0.05)
        try:
            service.start()
            assert expired.result(timeout=10).status == "timeout"
            # The same design solved afresh must not see a stale timeout.
            clean = service.solve(fast_request(MINI_SOURCE), timeout=60)
        finally:
            service.close()
        assert clean.ok
        assert service.stats().timeouts == 1

    def test_deadline_validation(self):
        with pytest.raises(ValueError, match="deadline_ms"):
            SolveOptions(deadline_ms=0).validate()
        with pytest.raises(ValueError, match="deadline_ms"):
            SolveOptions(deadline_ms=-5.0).validate()
        SolveOptions(deadline_ms=None).validate()  # default: no deadline


class TestTimerDeadlines:
    """The monotonic-deadline timer wheel: an expired request fails
    *while it still waits* — before any batch flush, even before the
    service starts — instead of at flush time (PR 4's first cut)."""

    def test_queued_expiry_fires_before_any_flush(self):
        # Batch window and size chosen so no flush can possibly happen
        # before the deadline (a batcher that has seen no arrival gap
        # holds the whole window): only the timer can resolve this future.
        config = ServeConfig(max_batch=64, batch_window_ms=30_000)
        with AssertService(config) as service:
            future = service.submit(
                fast_request(MINI_SOURCE, deadline_ms=30.0))
            response = future.result(timeout=5)
            stats = service.stats()
        assert response.status == "timeout"
        assert "deadline" in response.error
        assert stats.batches == 0  # timer-driven: no flush had occurred
        assert stats.timeouts == 1

    def test_expiry_fires_even_before_start(self):
        # The timer starts with the first deadline-carrying submit, not
        # with the consumer: a never-started service still times out.
        service = AssertService(ServeConfig())
        try:
            future = service.submit(
                fast_request(MINI_SOURCE, deadline_ms=20.0))
            response = future.result(timeout=5)
            assert response.status == "timeout"
            assert service.stats().timeouts == 1
        finally:
            service.close()

    def test_expired_request_is_never_computed(self):
        # The dead entry still travels through the queue, but its batch
        # slot must not waste compute on a response nobody will get.
        service = AssertService(ServeConfig(batch_window_ms=1.0))
        future = service.submit(fast_request(MINI_SOURCE, deadline_ms=5.0))
        assert future.result(timeout=5).status == "timeout"
        try:
            service.start()
            deadline = time.monotonic() + 5
            while service.stats().batches < 1 \
                    and time.monotonic() < deadline:
                time.sleep(0.005)
            assert service.stats().solved == 0
        finally:
            service.close()


class TestCancellation:
    """Client-initiated cancellation via ``AssertService.cancel``."""

    def tagged(self, request_id: str) -> SolveRequest:
        return SolveRequest(MINI_SOURCE, SolveOptions(**FAST),
                            request_id=request_id)

    def test_cancel_queued_request_drops_it(self):
        service = AssertService(ServeConfig())  # not started: stays queued
        request = self.tagged("job-1")
        future = service.submit(request)
        assert service.cancel("job-1") == 1
        response = future.result(timeout=5)
        assert response.status == "cancelled"
        assert not response.ok
        assert response.request_key == request.cache_key()
        try:
            service.start()
            deadline = time.monotonic() + 5
            while service.stats().batches < 1 \
                    and time.monotonic() < deadline:
                time.sleep(0.005)
            stats = service.stats()
            assert stats.cancelled == 1
            assert stats.solved == 0  # dropped before any compute
            assert stats.inflight == 0
        finally:
            service.close()

    def test_cancel_unknown_or_untagged(self):
        service = AssertService(ServeConfig())
        try:
            service.submit(fast_request(MINI_SOURCE))  # no request_id
            assert service.cancel("nope") == 0
            assert service.cancel("") == 0
        finally:
            service.close()

    def test_cancel_resolves_each_request_once(self):
        service = AssertService(ServeConfig())
        try:
            service.submit(self.tagged("dup"))
            service.submit(self.tagged("dup"))
            assert service.cancel("dup") == 2
            assert service.cancel("dup") == 0  # nothing left to cancel
            assert service.stats().cancelled == 2
        finally:
            service.close()

    def test_cancel_racing_batch_is_cached_but_not_delivered(self):
        # Cancel lands after the batch formed and compute began: the
        # client's future resolves to ``cancelled`` immediately, while
        # the computed response still lands in the result cache — it is
        # a valid answer for future repeats of the same content.
        config = ServeConfig(batch_window_ms=1.0, result_cache=True)
        service = AssertService(config).start()
        try:
            real_map = service._engine.map
            compute_started = threading.Event()
            release = threading.Event()

            def gated_map(fn, tasks, **kwargs):
                compute_started.set()
                assert release.wait(10), "flush never released"
                return real_map(fn, tasks, **kwargs)

            service._engine.map = gated_map
            future = service.submit(self.tagged("race"))
            assert compute_started.wait(10)  # batch formed, compute running
            assert service.cancel("race") == 1
            assert future.result(timeout=5).status == "cancelled"
            release.set()
            deadline = time.monotonic() + 10
            while service.stats().solved < 1 \
                    and time.monotonic() < deadline:
                time.sleep(0.005)
            service._engine.map = real_map
            # The abandoned response was cached: a repeat of the same
            # content is a cache hit, not a recompute.
            repeat = service.solve(fast_request(MINI_SOURCE), timeout=60)
            stats = service.stats()
        finally:
            service.close()
        assert repeat.ok
        assert stats.solved == 1
        assert stats.cache_hits == 1
        assert stats.cancelled == 1


class TestSaturationGauges:
    def test_inflight_and_capacity_gauges(self):
        service = AssertService(ServeConfig(max_queue=8))
        futures = [service.submit(fast_request(MINI_SOURCE))
                   for _ in range(3)]
        stats = service.stats()
        assert stats.inflight == 3  # accepted, nothing resolved yet
        assert stats.queue_depth == 3
        assert stats.queue_capacity == 8
        try:
            service.start()
            for future in futures:
                assert future.result(timeout=60).ok
            assert service.stats().inflight == 0
        finally:
            service.close()

    def test_metrics_without_store(self):
        with AssertService(ServeConfig()) as service:
            service.solve(fast_request(MINI_SOURCE), timeout=60)
            parsed = parse_prometheus_text(service.metrics.render())
        for name in ("repro_service_inflight", "repro_service_queue_depth",
                     "repro_service_queue_capacity",
                     "repro_service_cancelled_total",
                     "repro_service_timeouts_total",
                     "repro_service_submitted_total"):
            assert parsed.value(name) is not None, name
        assert not any(name.startswith("repro_service_store_")
                       for name, _ in parsed.samples)

    def test_metrics_with_store(self):
        from repro.store import StoreConfig

        config = ServeConfig(store=StoreConfig())
        with AssertService(config) as service:
            service.solve(fast_request(MINI_SOURCE), timeout=60)
            parsed = parse_prometheus_text(service.metrics.render())
            counters = service._store.counters()
            entries = len(service._store)
        for counter in ("hits", "misses", "writes"):
            assert parsed.value(f"repro_service_store_{counter}") == \
                counters[counter]
        assert parsed.value("repro_service_store_entries") == entries >= 1


class TestCoverageStoreScope:
    """``coverage`` adds a block to every response, so coverage-on and
    coverage-off services sharing one store must never serve each
    other's responses; coverage-off keys stay what they were."""

    @staticmethod
    def _solve(store_path, coverage):
        from repro.store import StoreConfig

        config = ServeConfig(coverage=coverage,
                             store=StoreConfig(path=store_path))
        with AssertService(config) as service:
            body = service.solve(fast_request(MINI_SOURCE),
                                 timeout=60).to_json()
            return body, service.stats()

    def test_off_on_off_over_one_store(self, tmp_path):
        from repro.store import StoreConfig

        fresh_on, _ = self._solve(tmp_path / "fresh", coverage=True)
        off, stats = self._solve(tmp_path / "shared", coverage=False)
        assert stats.solved == 1
        assert '"coverage"' not in off

        on, stats = self._solve(tmp_path / "shared", coverage=True)
        assert on == fresh_on  # solved afresh, coverage block included
        assert (stats.solved, stats.cache_store_hits) == (1, 0)

        again, stats = self._solve(tmp_path / "shared", coverage=False)
        assert again == off
        assert (stats.solved, stats.cache_store_hits) == (0, 1)
        # Coverage-off store keys are the bare semantic scope.
        with AssertService(ServeConfig(
                store=StoreConfig(path=tmp_path))) as service:
            assert service._cache.scope == knobs.digest(service.config)
