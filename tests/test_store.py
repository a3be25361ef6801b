"""Persistent artifact store: integrity, eviction, concurrency, wiring.

The store's contract is deliberately strict, so the tests are too:

- writes are atomic (tempfile + rename): a reader — even in another
  process — sees the old blob or the new blob, never a torn one;
- a corrupted or truncated entry is *never served*: digest-verified
  reads quarantine it and count a miss (regression: deliberately
  bit-flipped blobs);
- eviction keeps total bytes under budget, least-recently-used first;
- the tiers compose: CompileCache / ResultCache spill to and refill
  from a backing store with consistent monotonic counters, and a warm
  pipeline re-run against a populated DiskStore reproduces the cold
  run's ``DatasetBundle.fingerprint()`` byte for byte.
"""

from __future__ import annotations

import json
import pickle
import threading
import time

import pytest

from repro.datagen.pipeline import DatagenConfig, run_pipeline
from repro.serve import (
    AssertService,
    ResultCache,
    ServeConfig,
    SolveOptions,
    SolveRequest,
    WorkloadSpec,
    build_workload,
)
from repro.store import (
    NS_COMPILE,
    NS_SERVE,
    NS_STAGE,
    DiskStore,
    MemoryStore,
    StoreConfig,
    TieredStore,
    content_key,
    unit_memo_key,
)
from repro.verilog.compile import (
    CompileCache,
    compile_cache_counters,
    default_compile_cache,
    hold_compile_store,
    release_compile_store,
)

GOLDEN = """
module and_gate (
  input clk,
  input a,
  input b,
  output wire y
);
  assign y = a & b;
endmodule
"""

BROKEN = "module broken (\n  input a\n;\nendmodule\n"

#: Tiny-but-real pipeline scale: behaviour, not statistical power.
PIPELINE_KNOBS = dict(n_designs=4, bugs_per_design=2, bmc_depth=4,
                      bmc_random_trials=4)


def fill(store, count: int, size: int = 64, namespace: str = NS_STAGE,
         prefix: str = "entry"):
    keys = []
    for i in range(count):
        key = content_key(f"{prefix}-{i}")
        store.put(namespace, key, "x" * size)
        keys.append(key)
    return keys


class TestContentAddressing:
    def test_content_key_is_stable_and_collision_free(self):
        assert content_key("a", "b") == content_key("a", "b")
        assert content_key("ab", "c") != content_key("a", "bc")
        assert content_key("a") != content_key("a", "")

    def test_unit_memo_key_separates_every_component(self):
        base = unit_memo_key("stage1", "mod", "digest", 1)
        assert unit_memo_key("stage2", "mod", "digest", 1) != base
        assert unit_memo_key("stage1", "mod2", "digest", 1) != base
        assert unit_memo_key("stage1", "mod", "other", 1) != base
        assert unit_memo_key("stage1", "mod", "digest", 2) != base
        assert unit_memo_key("stage1", "mod", "digest", 1, 0) != base

    def test_namespace_and_key_validation(self, tmp_path):
        store = DiskStore(tmp_path)
        with pytest.raises(ValueError, match="namespace"):
            store.get("../escape", content_key("x"))
        with pytest.raises(ValueError, match="hex"):
            store.get(NS_STAGE, "../../etc/passwd")
        with pytest.raises(ValueError, match="hex"):
            store.put(NS_STAGE, "UPPER", 1)


class TestMemoryStore:
    def test_roundtrip_and_counters(self):
        store = MemoryStore(max_entries=8)
        key = content_key("k")
        assert store.get(NS_STAGE, key) is None
        store.put(NS_STAGE, key, {"v": 1})
        assert store.get(NS_STAGE, key) == {"v": 1}
        assert store.counters() == {"hits": 1, "misses": 1, "writes": 1,
                                    "evictions": 0, "corrupt": 0}

    def test_lru_eviction_prefers_recently_used(self):
        store = MemoryStore(max_entries=2)
        a, b = fill(store, 2)
        assert store.get(NS_STAGE, a) is not None  # a is now most recent
        c = content_key("entry-c")
        store.put(NS_STAGE, c, "z")
        assert store.get(NS_STAGE, b) is None
        assert store.get(NS_STAGE, a) is not None
        assert store.evictions == 1

    def test_namespaces_do_not_collide(self):
        store = MemoryStore()
        key = content_key("shared")
        store.put(NS_COMPILE, key, "compile")
        store.put(NS_SERVE, key, "serve")
        assert store.get(NS_COMPILE, key) == "compile"
        assert store.get(NS_SERVE, key) == "serve"


class TestDiskStore:
    def test_roundtrip_persists_across_instances(self, tmp_path):
        key = content_key("payload")
        DiskStore(tmp_path).put(NS_STAGE, key, {"nested": [1, "two"]})
        fresh = DiskStore(tmp_path)
        assert fresh.get(NS_STAGE, key) == {"nested": [1, "two"]}
        assert fresh.hits == 1

    def test_put_leaves_no_tempfiles(self, tmp_path):
        store = DiskStore(tmp_path)
        fill(store, 5)
        leftovers = [p for p in tmp_path.rglob(".tmp-*")]
        assert leftovers == []

    def test_bitflip_is_quarantined_never_served(self, tmp_path):
        """Regression: a corrupted on-disk entry counts as a miss and is
        deleted — it must never raise into (or reach) the caller."""
        store = DiskStore(tmp_path)
        key = content_key("victim")
        store.put(NS_STAGE, key, "precious")
        path = store._blob_path(NS_STAGE, key)
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 0x40  # flip one payload bit
        path.write_bytes(bytes(blob))

        fresh = DiskStore(tmp_path)
        assert fresh.get(NS_STAGE, key) is None
        assert fresh.corrupt == 1
        assert fresh.misses == 1
        assert not path.exists(), "quarantine must remove the entry"
        # The slot is immediately reusable.
        fresh.put(NS_STAGE, key, "recovered")
        assert fresh.get(NS_STAGE, key) == "recovered"

    def test_truncated_blob_is_a_miss(self, tmp_path):
        store = DiskStore(tmp_path)
        key = content_key("short")
        store.put(NS_STAGE, key, list(range(100)))
        path = store._blob_path(NS_STAGE, key)
        path.write_bytes(path.read_bytes()[:-7])
        assert store.get(NS_STAGE, key) is None
        assert store.corrupt == 1
        assert not path.exists()

    def test_garbage_file_is_a_miss(self, tmp_path):
        store = DiskStore(tmp_path)
        key = content_key("garbage")
        path = store._blob_path(NS_STAGE, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not a store blob at all")
        assert store.get(NS_STAGE, key) is None
        assert store.corrupt == 1

    def test_unpickled_garbage_payload_is_a_miss(self, tmp_path):
        """A verifying header over an unloadable payload (schema drift,
        hostile write) is still corruption, not an exception."""
        import hashlib

        store = DiskStore(tmp_path)
        key = content_key("drift")
        payload = b"\x80\x04stream-that-is-not-a-pickle."
        header = b" ".join((b"repro-store/1",
                            hashlib.sha256(payload).hexdigest().encode(),
                            str(len(payload)).encode())) + b"\n"
        path = store._blob_path(NS_STAGE, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(header + payload)
        assert store.get(NS_STAGE, key) is None
        assert store.corrupt == 1

    def test_inflight_tempfile_is_invisible(self, tmp_path):
        """A crashed writer's partial tempfile is never read as an entry."""
        store = DiskStore(tmp_path)
        key = content_key("inflight")
        path = store._blob_path(NS_STAGE, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        (path.parent / ".tmp-abandoned").write_bytes(b"partial write")
        assert store.get(NS_STAGE, key) is None
        assert store.corrupt == 0  # a missing entry, not a corrupt one

    def test_size_budgeted_lru_eviction(self, tmp_path):
        store = DiskStore(tmp_path, max_bytes=1500)
        keys = fill(store, 12, size=200)
        assert store.total_bytes() <= 1500
        assert store.evictions > 0
        # Newest entries survive; oldest were evicted.
        assert store.get(NS_STAGE, keys[-1]) is not None
        assert store.get(NS_STAGE, keys[0]) is None

    def test_recently_read_entries_survive_eviction(self, tmp_path):
        store = DiskStore(tmp_path, max_bytes=1200)
        keys = fill(store, 4, size=200)
        for round_no in range(3):
            assert store.get(NS_STAGE, keys[0]) is not None  # keep hot
            fill(store, 1, size=200, prefix=f"extra-{round_no}")
        assert store.get(NS_STAGE, keys[0]) is not None

    def test_corrupt_index_rebuilds_by_scanning(self, tmp_path):
        store = DiskStore(tmp_path)
        key = content_key("survivor")
        store.put(NS_STAGE, key, "alive")
        (tmp_path / "index.json").write_text("{ not json !")
        fresh = DiskStore(tmp_path)
        assert fresh.get(NS_STAGE, key) == "alive"
        assert fresh.total_bytes() > 0

    def test_clear_empties_store(self, tmp_path):
        store = DiskStore(tmp_path)
        keys = fill(store, 3)
        store.clear()
        assert len(store) == 0
        assert store.get(NS_STAGE, keys[0]) is None


class TestConcurrentWriters:
    def test_threads_racing_on_shared_keys(self, tmp_path):
        """Readers must observe complete values or misses, never torn or
        mixed writes — under contention on the same keys."""
        store = DiskStore(tmp_path)
        keys = [content_key(f"slot-{i}") for i in range(4)]
        errors = []

        def worker(worker_id: int):
            try:
                for round_no in range(25):
                    for key in keys:
                        # Every writer writes the same value per key:
                        # content addressing means a key determines its
                        # payload, as in real (content-hash) usage.
                        store.put(NS_STAGE, key, f"value-for-{key}")
                        got = store.get(NS_STAGE, key)
                        if got is not None and got != f"value-for-{key}":
                            errors.append((worker_id, round_no, got))
            except Exception as exc:  # noqa: BLE001
                errors.append((worker_id, repr(exc)))

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        for key in keys:
            assert store.get(NS_STAGE, key) == f"value-for-{key}"

    def test_two_instances_share_one_directory(self, tmp_path):
        """Separate handles (stand-ins for separate processes) interleave
        writes safely: atomic renames govern visibility."""
        a, b = DiskStore(tmp_path), DiskStore(tmp_path)
        key_a, key_b = content_key("from-a"), content_key("from-b")
        a.put(NS_STAGE, key_a, "A")
        b.put(NS_STAGE, key_b, "B")
        assert a.get(NS_STAGE, key_b) == "B"
        assert b.get(NS_STAGE, key_a) == "A"
        # Same-key writes from both handles: last complete write wins,
        # readers never see a blend.
        shared = content_key("shared")
        a.put(NS_STAGE, shared, "same")
        b.put(NS_STAGE, shared, "same")
        assert DiskStore(tmp_path).get(NS_STAGE, shared) == "same"


def blob_bytes_on_disk(root) -> int:
    """Combined blob bytes as the filesystem sees them (all writers)."""
    return sum(p.stat().st_size for p in root.rglob("*")
               if p.is_file() and p.name != "index.json"
               and not p.name.startswith(".tmp-")
               and p.name != ".compact-lock")


class TestCrossProcessBudget:
    """Regression: long-lived instances each enforce ``max_bytes`` from
    their *own* index (which stops seeing foreign writes after load), so
    a fleet's combined writes used to exceed the budget unboundedly.
    ``compact()`` closes this with a lock-file-guarded rescan+evict."""

    BUDGET = 4_000

    def two_writers(self, tmp_path, count: int = 12, size: int = 300):
        # Both handles load from an empty directory, then interleave:
        # neither index ever sees the other's writes.
        a = DiskStore(tmp_path, max_bytes=self.BUDGET, compact_every=0)
        b = DiskStore(tmp_path, max_bytes=self.BUDGET, compact_every=0)
        for i in range(count):
            a.put(NS_STAGE, content_key(f"writer-a-{i}"), "x" * size)
            b.put(NS_STAGE, content_key(f"writer-b-{i}"), "y" * size)
        return a, b

    def test_combined_writes_exceed_budget_without_compaction(self, tmp_path):
        a, b = self.two_writers(tmp_path)
        # Each instance believes it is under budget...
        assert a.total_bytes() <= self.BUDGET
        assert b.total_bytes() <= self.BUDGET
        # ...while the directory holds roughly twice the budget: the bug.
        assert blob_bytes_on_disk(tmp_path) > self.BUDGET

    def test_compact_restores_combined_budget(self, tmp_path):
        a, _ = self.two_writers(tmp_path)
        evicted = a.compact()
        assert evicted > 0
        assert blob_bytes_on_disk(tmp_path) <= self.BUDGET
        assert a.counters()["compactions"] == 1
        # The reconciled index now covers every surviving blob, and the
        # persisted index lets a fresh handle see the true total.
        assert a.total_bytes() == blob_bytes_on_disk(tmp_path)
        fresh = DiskStore(tmp_path, max_bytes=self.BUDGET)
        assert fresh.total_bytes() <= self.BUDGET

    def test_put_triggers_compaction_automatically(self, tmp_path):
        # b floods the directory compaction-free; a's own puts cross
        # compact_every and trigger the fleet-wide pass on their own.
        b = DiskStore(tmp_path, max_bytes=self.BUDGET, compact_every=0)
        for i in range(10):
            b.put(NS_STAGE, content_key(f"flood-{i}"), "z" * 300)
        a = DiskStore(tmp_path, max_bytes=self.BUDGET, compact_every=4)
        for i in range(8):
            a.put(NS_STAGE, content_key(f"auto-{i}"), "w" * 300)
        assert a.compactions >= 1
        assert blob_bytes_on_disk(tmp_path) <= self.BUDGET

    def test_compact_respects_recency_across_writers(self, tmp_path):
        a, b = self.two_writers(tmp_path)
        hot = content_key("writer-b-11")  # b's newest write
        assert a.get(NS_STAGE, hot) is not None  # freshens mtime via a
        a.compact()
        assert a.get(NS_STAGE, hot) is not None  # survived the pass

    def test_contended_lock_skips_and_leaves_holder_alone(self, tmp_path):
        a, _ = self.two_writers(tmp_path)
        lock = tmp_path / ".compact-lock"
        lock.write_text("held-by-another-process")
        assert a.compact() == 0  # someone else is walking; don't double up
        assert lock.exists()  # never releases a lock it doesn't hold
        assert blob_bytes_on_disk(tmp_path) > self.BUDGET

    def test_stale_lock_is_broken(self, tmp_path):
        import os

        a, _ = self.two_writers(tmp_path)
        lock = tmp_path / ".compact-lock"
        lock.write_text("crashed-holder")
        ancient = time.time() - 3600.0
        os.utime(lock, (ancient, ancient))
        assert a.compact() > 0  # broke the stale lock and did the work
        assert not lock.exists()
        assert blob_bytes_on_disk(tmp_path) <= self.BUDGET

    def test_lock_file_is_invisible_to_rescans(self, tmp_path):
        store = DiskStore(tmp_path, max_bytes=self.BUDGET)
        store.put(NS_STAGE, content_key("only"), "value")
        (tmp_path / ".compact-lock").write_text("held")
        fresh = DiskStore(tmp_path, max_bytes=self.BUDGET)
        assert len(fresh) == 1  # the lock never counts as a blob


class TestTieredStore:
    def test_promote_on_disk_hit(self, tmp_path):
        key = content_key("promoted")
        DiskStore(tmp_path).put(NS_STAGE, key, 42)
        tiered = TieredStore(MemoryStore(), DiskStore(tmp_path))
        assert tiered.get(NS_STAGE, key) == 42
        assert tiered.back.hits == 1
        assert tiered.get(NS_STAGE, key) == 42
        assert tiered.front.hits == 1  # served from memory the second time
        assert tiered.counters()["hits"] == 2

    def test_write_through_and_refill_after_front_eviction(self, tmp_path):
        tiered = TieredStore(MemoryStore(max_entries=1),
                             DiskStore(tmp_path))
        keys = fill(tiered, 3)
        # Front only holds the newest; older entries refill from disk.
        assert tiered.get(NS_STAGE, keys[0]) is not None
        assert tiered.back.hits >= 1
        assert tiered.misses == 0


class TestStoreConfig:
    def test_memory_only_default(self):
        assert isinstance(StoreConfig().make_store(), MemoryStore)
        assert StoreConfig().store_path() == ""

    def test_disk_backed_tiers(self, tmp_path):
        tiered = StoreConfig(path=tmp_path).make_store()
        assert isinstance(tiered, TieredStore)
        assert isinstance(tiered.back, DiskStore)
        assert StoreConfig(path=tmp_path).store_path() == str(tmp_path)

    def test_disabled_makes_nothing(self):
        """``store=None`` is the way to run without a store; neither it
        nor a memory-only config attaches a compile tier."""
        assert AssertService(ServeConfig(store=None))._store is None
        assert hold_compile_store(None) is None
        assert hold_compile_store(StoreConfig()) is None

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            StoreConfig(path=tmp_path, max_bytes=0)


class TestCompileCachePersistence:
    def test_refill_across_cache_instances(self, tmp_path):
        store = DiskStore(tmp_path)
        first = CompileCache(store=store)
        result = first.get_or_compile(GOLDEN)
        assert result.ok
        assert first.counters() == {"hits": 0, "misses": 1, "evictions": 0,
                                    "store_hits": 0}

        second = CompileCache(store=store)  # fresh memory tier
        refilled = second.get_or_compile(GOLDEN)
        assert refilled.ok
        assert refilled.failure_summary() == result.failure_summary()
        assert refilled.design.name == result.design.name
        assert second.counters() == {"hits": 0, "misses": 0, "evictions": 0,
                                     "store_hits": 1}
        # Now resident in memory: the next lookup is a plain hit.
        assert second.get_or_compile(GOLDEN) is refilled
        assert second.hits == 1

    def test_failures_are_cached_persistently_too(self, tmp_path):
        store = DiskStore(tmp_path)
        CompileCache(store=store).get_or_compile(BROKEN)
        second = CompileCache(store=store)
        cached = second.get_or_compile(BROKEN)
        assert not cached.ok
        assert cached.failure_summary()
        assert second.store_hits == 1

    def test_tier_counters_stay_consistent(self, tmp_path):
        """Satellite: spill-refill round trip keeps hit/miss counters
        monotonic and mutually consistent across tiers."""
        store = DiskStore(tmp_path)
        cache = CompileCache(max_entries=1, store=store)
        sources = [GOLDEN, BROKEN, GOLDEN.replace("and_gate", "other_gate")]
        snapshots = []
        for _ in range(3):
            for source in sources:  # max_entries=1 forces constant spill
                cache.get_or_compile(source)
                snapshots.append(cache.counters())
        lookups = 3 * len(sources)
        final = snapshots[-1]
        assert final["hits"] + final["store_hits"] + final["misses"] == lookups
        # Every memory miss consulted the store exactly once.
        assert store.hits + store.misses == final["store_hits"] + final["misses"]
        assert store.hits == final["store_hits"]
        for before, after in zip(snapshots, snapshots[1:]):
            for counter in ("hits", "misses", "store_hits", "evictions"):
                assert after[counter] >= before[counter], "non-monotonic"


class TestResultCacheSpillRefill:
    def test_refill_and_counter_consistency(self, tmp_path):
        """Satellite: ResultCache stats after a spill-refill round trip."""
        store = DiskStore(tmp_path)
        writer = ResultCache(max_entries=4, store=store)
        key = content_key("response")
        writer.put(key, {"status": "ok", "n": 1})

        reader = ResultCache(max_entries=4, store=store)
        assert reader.get(key) == {"status": "ok", "n": 1}
        assert reader.counters() == {"hits": 0, "misses": 0, "evictions": 0,
                                     "store_hits": 1}
        assert reader.get(key) == {"status": "ok", "n": 1}
        assert reader.hits == 1
        assert reader.hit_rate == 1.0
        missing = reader.get(content_key("absent"))
        assert missing is None
        final = reader.counters()
        assert final["hits"] + final["store_hits"] + final["misses"] == 3
        assert store.hits + store.misses \
            == final["store_hits"] + final["misses"]

    def test_memory_eviction_refills_from_store(self, tmp_path):
        cache = ResultCache(max_entries=1, store=DiskStore(tmp_path))
        first, second = content_key("one"), content_key("two")
        cache.put(first, "response-1")
        cache.put(second, "response-2")  # evicts `first` from memory
        assert cache.evictions == 1
        assert cache.get(first) == "response-1"  # refilled, not lost
        assert cache.store_hits == 1

    def test_without_store_misses_stay_misses(self):
        cache = ResultCache(max_entries=4)
        assert cache.get(content_key("nothing")) is None
        assert cache.counters() == {"hits": 0, "misses": 1, "evictions": 0,
                                    "store_hits": 0}


class TestResultCacheSeedScope:
    """``ServeConfig.seed`` roots every solve's RNG streams, so services
    with different seeds sharing one store must never serve each other's
    responses, while one seed keeps hitting across restarts."""

    @staticmethod
    def _solve_all(requests, store_path=None, seed=1):
        store = StoreConfig(path=store_path) if store_path else None
        with AssertService(ServeConfig(seed=seed, store=store)) as service:
            bodies = [service.solve(r, timeout=120).to_json()
                      for r in requests]
            return bodies, service.stats()

    def test_seeds_sharing_a_store_never_cross_serve(self, tmp_path):
        requests = build_workload(WorkloadSpec(
            n_requests=4, unique_designs=4, seed=3, bmc_depth=6,
            bmc_random_trials=8, hallucination_rate=0.3))
        seed1, _ = self._solve_all(requests, tmp_path, seed=1)
        fresh2, _ = self._solve_all(requests, seed=2)
        assert seed1 != fresh2  # the seed does change responses here

        shared2, stats = self._solve_all(requests, tmp_path, seed=2)
        assert shared2 == fresh2
        assert stats.cache_store_hits == 0
        # The request keys in the bodies are untouched by the scope.
        assert [json.loads(b)["request_key"] for b in shared2] == \
            [r.cache_key() for r in requests]

        # A restarted seed-1 service hits every response it stored.
        again1, stats = self._solve_all(requests, tmp_path, seed=1)
        assert again1 == seed1
        assert stats.solved == 0
        assert stats.cache_store_hits == len({r.cache_key()
                                              for r in requests})


class TestIncrementalPipeline:
    def test_warm_rerun_is_fingerprint_identical(self, tmp_path):
        """The acceptance criterion's correctness half: a re-run with an
        unchanged config against a populated DiskStore serves every stage
        unit from the store and reproduces the bundle byte for byte."""
        config = dict(seed=77, store=StoreConfig(path=tmp_path),
                      **PIPELINE_KNOBS)
        cold = run_pipeline(DatagenConfig(**config))
        assert cold.stats["store"]["stage_memo_hits"] == 0
        assert cold.stats["store"]["stage_memo_misses"] > 0

        warm = run_pipeline(DatagenConfig(**config))
        assert warm.fingerprint() == cold.fingerprint()
        assert warm.comparable() == cold.comparable()
        assert warm.stats["store"]["stage_memo_misses"] == 0
        assert warm.stats["store"]["stage_memo_hits"] \
            == cold.stats["store"]["stage_memo_misses"]

    def test_warm_parallel_hits_what_serial_stored(self, tmp_path):
        """Memo keys exclude execution knobs, so a process-pool re-run
        reuses a serial run's stored units (and vice versa)."""
        common = dict(seed=78, store=StoreConfig(path=tmp_path),
                      **PIPELINE_KNOBS)
        cold = run_pipeline(DatagenConfig(n_workers=1, **common))
        warm = run_pipeline(DatagenConfig(n_workers=2, backend="process",
                                          **common))
        assert warm.fingerprint() == cold.fingerprint()
        assert warm.stats["store"]["stage_memo_misses"] == 0

    def test_semantic_change_does_not_reuse_stale_units(self, tmp_path):
        store_config = StoreConfig(path=tmp_path)
        first = run_pipeline(DatagenConfig(seed=79, store=store_config,
                                           **PIPELINE_KNOBS))
        changed = run_pipeline(DatagenConfig(seed=80, store=store_config,
                                             **PIPELINE_KNOBS))
        assert changed.fingerprint() != first.fingerprint()
        assert changed.stats["store"]["stage_memo_hits"] == 0

    def test_store_never_changes_results(self, tmp_path):
        config = dict(seed=81, **PIPELINE_KNOBS)
        plain = run_pipeline(DatagenConfig(**config))
        stored = run_pipeline(DatagenConfig(
            store=StoreConfig(path=tmp_path), **config))
        assert plain.fingerprint() == stored.fingerprint()

    def test_semantic_digest_tracks_only_semantic_knobs(self):
        base = DatagenConfig(**PIPELINE_KNOBS)
        same = DatagenConfig(n_workers=4, backend="process",
                             **PIPELINE_KNOBS)
        assert base.semantic_digest() == same.semantic_digest()
        other = DatagenConfig(**{**PIPELINE_KNOBS, "seed": 9999})
        assert base.semantic_digest() != other.semantic_digest()

    def test_semantic_digest_includes_code_version(self, monkeypatch):
        """Regression: stage implementations evolve across releases, so
        a long-lived store must not serve another version's units."""
        import repro

        base = DatagenConfig(**PIPELINE_KNOBS).semantic_digest()
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        assert DatagenConfig(**PIPELINE_KNOBS).semantic_digest() != base


class TestServiceResponsePooling:
    OPTIONS = SolveOptions(bmc_depth=4, bmc_random_trials=4)
    SOURCE = GOLDEN

    def _config(self, tmp_path) -> ServeConfig:
        return ServeConfig(n_workers=1, backend="serial", seed=5,
                           batch_window_ms=1.0,
                           store=StoreConfig(path=tmp_path))

    def test_second_instance_serves_from_the_shared_store(self, tmp_path):
        with AssertService(self._config(tmp_path)) as first:
            original = first.solve(SolveRequest(self.SOURCE, self.OPTIONS))
            assert first.stats().solved == 1

        with AssertService(self._config(tmp_path)) as second:
            pooled = second.solve(SolveRequest(self.SOURCE, self.OPTIONS))
            stats = second.stats()
        assert stats.solved == 0, "must not recompute"
        assert stats.cache_store_hits == 1
        assert pooled.to_json() == original.to_json(), \
            "pooled response must be byte-identical"

    def test_cold_request_reads_the_store_once(self, tmp_path):
        """The submit probe reads the store; the flush re-check of a
        miss stays in memory, so a cold request costs one disk read."""
        service = AssertService(self._config(tmp_path))
        disk = service._store.back
        assert isinstance(disk, DiskStore)
        reads = []
        real_get = disk.get

        def counting_get(namespace, key):
            reads.append(namespace)
            return real_get(namespace, key)

        disk.get = counting_get
        with service:
            cold = service.solve(SolveRequest(self.SOURCE, self.OPTIONS))
            assert reads.count(NS_SERVE) == 1
            warm = service.solve(SolveRequest(self.SOURCE, self.OPTIONS))
            stats = service.stats()
        assert reads.count(NS_SERVE) == 1  # the repeat hit memory
        assert warm.to_json() == cold.to_json()
        assert (stats.cache_hits, stats.cache_store_hits,
                stats.cache_misses) == (1, 0, 1)

    def test_store_survives_pickle_of_responses(self, tmp_path):
        with AssertService(self._config(tmp_path)) as service:
            response = service.solve(SolveRequest(self.SOURCE, self.OPTIONS))
        clone = pickle.loads(pickle.dumps(response))
        assert clone.to_json() == response.to_json()


class TestStoreSurvivesWorkerProcesses:
    def test_process_pool_workers_share_the_compile_store(self, tmp_path):
        """The engine attaches each worker's compile cache to the shared
        directory; artifacts they compile persist after the pool is
        gone."""
        config = DatagenConfig(seed=83, n_workers=2, backend="process",
                               store=StoreConfig(path=tmp_path),
                               **PIPELINE_KNOBS)
        run_pipeline(config)
        compile_dir = tmp_path / "compile" / "v1"
        assert compile_dir.is_dir()
        assert any(compile_dir.rglob("*")), \
            "worker compile artifacts must land in the shared store"


class TestEvictionSurvivesStaleIndexes:
    def test_fresh_handle_sees_other_handles_writes(self, tmp_path):
        """Regression: two handles on one root (e.g. the stage-memo store
        and the compile tier of one run, or two processes) each persist
        an index knowing only their own entries; a later handle must
        reconcile against the filesystem, not trust the stale index —
        otherwise the size budget silently stops being enforced."""
        a, b = DiskStore(tmp_path), DiskStore(tmp_path)
        fill(a, 4, size=200, prefix="a")
        fill(b, 4, size=200, prefix="b")
        # Simulate the worst case: the surviving index knows nothing.
        (tmp_path / "index.json").write_text('{"version": 1, "entries": {}}')
        fresh = DiskStore(tmp_path)
        assert len(fresh) == 8
        assert fresh.total_bytes() == a.total_bytes() + b.total_bytes()

    def test_budget_enforced_across_restarts(self, tmp_path):
        for round_no in range(4):
            store = DiskStore(tmp_path, max_bytes=1500)
            fill(store, 4, size=200, prefix=f"round-{round_no}")
        assert DiskStore(tmp_path).total_bytes() <= 1500

    def test_saved_last_used_times_survive_reload(self, tmp_path):
        store = DiskStore(tmp_path)
        key = content_key("timed")
        store.put(NS_STAGE, key, "v")
        future_time = 4_000_000_000.0  # newer than any mtime
        store._index[store._rel(store._blob_path(NS_STAGE, key))][1] = \
            future_time
        store._persist_index_locked()
        fresh = DiskStore(tmp_path)
        rel = fresh._rel(fresh._blob_path(NS_STAGE, key))
        assert fresh._index[rel][1] == future_time


class TestCompileCacheGlobalConfig:
    def test_store_budget_restores_exactly(self, tmp_path):
        """Regression: releasing a hold must restore "no store", and a
        later attachment must not inherit a stale budget."""
        from repro.store.disk import DEFAULT_MAX_BYTES

        hold = hold_compile_store(StoreConfig(path=tmp_path,
                                              max_bytes=123_456))
        try:
            assert default_compile_cache().store.max_bytes == 123_456
        finally:
            release_compile_store(hold)
        assert default_compile_cache().store is None
        # A fresh attachment without an explicit budget gets the default,
        # not the 123_456 leftover.
        second = hold_compile_store(StoreConfig(path=tmp_path))
        try:
            assert default_compile_cache().store.max_bytes \
                == DEFAULT_MAX_BYTES
        finally:
            release_compile_store(second)
        assert default_compile_cache().store is None

    def test_overlapping_holds_keep_the_tier(self, tmp_path):
        """Holds released in start order (not nested) keep the tier
        attached until the last one goes."""
        config = StoreConfig(path=tmp_path)
        holds = [hold_compile_store(config) for _ in range(3)]
        cache = default_compile_cache()
        assert cache.store is not None
        for hold in holds[:-1]:
            release_compile_store(hold)
            assert default_compile_cache() is cache, \
                "an open hold keeps the attached cache"
        release_compile_store(holds[-1])
        assert default_compile_cache().store is None

    def test_hit_rate_counts_store_refills(self, tmp_path):
        store = DiskStore(tmp_path)
        CompileCache(store=store).get_or_compile(GOLDEN)
        warm = CompileCache(store=store)
        warm.get_or_compile(GOLDEN)  # store refill, zero recompiles
        assert warm.hit_rate == 1.0


class TestSerialServeCompileTier:
    def test_serial_service_persists_compile_artifacts(self, tmp_path):
        """Regression: under the serial backend no pool worker exists, so
        the service's engine must hold the compile store in its own
        process — and release it again on close."""
        config = ServeConfig(n_workers=1, backend="serial", seed=3,
                             batch_window_ms=1.0,
                             store=StoreConfig(path=tmp_path))
        with AssertService(config) as service:
            assert default_compile_cache().store is not None
            response = service.solve(SolveRequest(
                GOLDEN, SolveOptions(bmc_depth=4, bmc_random_trials=4)))
            assert response.ok
        assert default_compile_cache().store is None, \
            "close() must release the compile tier"
        compile_dir = tmp_path / "compile" / "v1"
        assert compile_dir.is_dir() and any(compile_dir.rglob("*"))

    def test_fleet_keeps_the_tier_until_its_last_backend_closes(
            self, tmp_path):
        """Regression: the fleet closes its backends in start order, so
        their lifetimes overlap without nesting.  Closing backend 0 must
        leave the tier attached for the others, and closing the fleet
        must leave the process with no store."""
        from repro.core.api import make_fleet

        router = make_fleet(3, ServeConfig(backend="serial",
                                           store=StoreConfig(path=tmp_path)))
        with router:
            router.backends[0].close()
            assert default_compile_cache().store is not None, \
                "the other backends still serve from the tier"
            response = router.backends[1].service.solve(SolveRequest(
                GOLDEN, SolveOptions(bmc_depth=4, bmc_random_trials=4)))
            assert response.ok
            compile_dir = tmp_path / "compile" / "v1"
            assert compile_dir.is_dir() and any(compile_dir.rglob("*"))
        assert default_compile_cache().store is None

    def test_counters_only_go_up_across_a_tier_change(self, tmp_path):
        """A tier change starts a fresh cache; the process's counters carry
        its running totals over instead of falling back to 0."""
        options = SolveOptions(bmc_depth=4, bmc_random_trials=4)
        readings = [compile_cache_counters()]
        with AssertService(ServeConfig(n_workers=1,
                                       backend="serial")) as service:
            assert service.solve(SolveRequest(
                GOLDEN.replace("and_gate", "and_gate_untiered"),
                options)).ok
            readings.append(compile_cache_counters())
        assert readings[-1]["misses"] > readings[0]["misses"]
        config = ServeConfig(n_workers=1, backend="serial",
                             store=StoreConfig(path=tmp_path))
        with AssertService(config) as service:
            readings.append(compile_cache_counters())
            assert service.solve(SolveRequest(
                GOLDEN.replace("and_gate", "and_gate_tiered"), options)).ok
            readings.append(compile_cache_counters())
        readings.append(compile_cache_counters())
        for before, after in zip(readings, readings[1:]):
            for name, value in before.items():
                assert after[name] >= value, (name, readings)
        assert readings[-1]["misses"] > readings[1]["misses"]

    def test_services_closed_in_start_order_release_the_tier(
            self, tmp_path):
        config = ServeConfig(n_workers=1, backend="serial",
                             store=StoreConfig(path=tmp_path))
        first = AssertService(config).start()
        second = AssertService(config).start()
        first.close()
        assert default_compile_cache().store is not None, \
            "the second service still holds the tier"
        second.close()
        assert default_compile_cache().store is None
