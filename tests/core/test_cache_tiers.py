"""The tiered cache: CacheConfig, budgets, LRU eviction, pinning.

DESIGN.md §12: an :class:`ArtifactCache` is an ordered stack of
:class:`CacheTier` layers, and eviction under any budget must be invisible
to correctness — an evicted entry is indistinguishable from one never
cached.  These tests exercise the tier API directly (MemoryTier/DiskTier),
the pressure invariants (pinned in-flight entries survive a full LRU
sweep; concurrent readers race eviction safely), and the headline
acceptance property: a table built under a tiny byte budget is
byte-identical to one built unbounded, with evictions observed.
"""

import json
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import api
from repro.errors import RequestError
from repro.obs import collecting
from repro.core.cache import (
    CACHE_STATS_SCHEMA_VERSION,
    ArtifactCache,
    CacheConfig,
    DiskTier,
    MemoryTier,
    RemoteTier,
    cache_digest,
    resolve_cache,
)
from repro.core.experiment import CellSpec, ExperimentConfig, Harness
from repro.core.stats import summarize_errors


def _fill(cache: ArtifactCache, n: int, size: int = 4096) -> list[str]:
    """Store ``n`` distinct trace entries of roughly ``size`` bytes."""
    digests = []
    for i in range(n):
        digest = cache_digest(kind="trace", cell=i, pad=size)
        # Seeded random payload: incompressible, so the stored entry
        # really occupies ~size bytes and budgets behave predictably.
        rng = np.random.default_rng(1234 + i)
        payload = rng.integers(0, 2 ** 62, size=size // 8, dtype=np.int64)
        cache.put_arrays("trace", digest, block_seq=payload)
        digests.append(digest)
    return digests


def _disk_path(cache: ArtifactCache, kind: str, digest: str):
    """Where the cache's disk tier keeps one entry."""
    disk = next(t for t in cache.tiers if isinstance(t, DiskTier))
    return disk.path(kind, digest)


# -- CacheConfig -----------------------------------------------------------


def test_cache_config_round_trip():
    config = CacheConfig(root="/tmp/x", max_bytes=1 << 20, hot_entries=8,
                         remote="http://hub:1", remote_timeout_s=2.5)
    assert CacheConfig.from_dict(config.to_dict()) == config
    # Defaults survive a partial document.
    assert CacheConfig.from_dict({"max_bytes": 4096}).hot_entries == 0


def test_cache_config_rejects_unknown_fields_and_bad_values():
    with pytest.raises(RequestError, match="unknown cache config field"):
        CacheConfig.from_dict({"max_bytes": 1, "surprise": True})
    with pytest.raises(RequestError):
        CacheConfig.from_dict([1, 2])
    with pytest.raises(RequestError, match="max_bytes"):
        CacheConfig(max_bytes=0)
    with pytest.raises(RequestError, match="hot_entries"):
        CacheConfig(hot_entries=-1)
    for dead_knob in ("policy", "pinning"):
        with pytest.raises(RequestError, match="unknown cache config field"):
            CacheConfig.from_dict({dead_knob: "lru"})


def test_cache_config_is_picklable_and_buildable(tmp_path):
    import pickle

    config = CacheConfig(root=str(tmp_path), max_bytes=1 << 16, hot_entries=4)
    clone = pickle.loads(pickle.dumps(config))
    cache = clone.build()
    assert cache.root == tmp_path
    assert [tier.name for tier in cache.tiers] == ["mem", "disk"]


def test_resolve_cache_accepts_config(tmp_path):
    cache = resolve_cache(CacheConfig(root=str(tmp_path), hot_entries=2))
    assert isinstance(cache, ArtifactCache)
    assert cache.root == tmp_path
    assert isinstance(cache.tiers[0], MemoryTier)


def test_describe_round_trips_through_workers(tmp_path):
    cache = ArtifactCache(tmp_path, config=CacheConfig(max_bytes=1 << 20))
    described = cache.describe()
    assert described.root == str(tmp_path)
    rebuilt = resolve_cache(described)
    assert rebuilt.root == cache.root
    assert rebuilt.config.max_bytes == 1 << 20


def test_api_exports_cache_config():
    assert api.CacheConfig is CacheConfig
    assert api.CACHE_STATS_SCHEMA_VERSION == CACHE_STATS_SCHEMA_VERSION
    import repro

    assert repro.CacheConfig is CacheConfig


# -- tier stacking ---------------------------------------------------------


def test_default_stack_is_disk_only(tmp_path):
    cache = ArtifactCache(tmp_path)
    assert [tier.name for tier in cache.tiers] == ["disk"]


def test_remote_config_appends_remote_tier(tmp_path):
    cache = ArtifactCache(tmp_path, config=CacheConfig(
        remote="http://hub:1/", remote_timeout_s=0.5))
    assert [tier.name for tier in cache.tiers] == ["disk", "remote"]
    remote = cache.tiers[-1]
    assert isinstance(remote, RemoteTier)
    assert remote.remote_url == "http://hub:1"
    assert remote.timeout_s == 0.5


def test_memory_tier_serves_without_disk_reads(tmp_path):
    cache = ArtifactCache(tmp_path, config=CacheConfig(hot_entries=4))
    digest = cache_digest(kind="stats", hot=1)
    cache.put_stats(digest, summarize_errors("classic", [0.25]))
    # Destroy the disk copy; the hot tier still answers.
    _disk_path(cache, "stats", digest).unlink()
    loaded = cache.get_stats(digest)
    assert loaded is not None and loaded.errors == (0.25,)
    mem = cache.tiers[0].stats()
    assert mem.tier == "mem" and mem.hits >= 1


def test_memory_tier_decodes_arrays_once_and_shares(tmp_path):
    cache = ArtifactCache(tmp_path, config=CacheConfig(hot_entries=4))
    digest = cache_digest(kind="trace", hot=2)
    cache.put_arrays("trace", digest, block_seq=np.arange(64))
    first = cache.get_arrays("trace", digest, ("block_seq",))
    second = cache.get_arrays("trace", digest, ("block_seq",))
    # Same decoded ndarray object handed to both callers: no re-decode.
    assert first["block_seq"] is second["block_seq"]


def test_memory_tier_lru_evicts_by_entry_count():
    tier = MemoryTier(max_entries=2)
    tier.store("stats", "a" * 64, b"one")
    tier.store("stats", "b" * 64, b"two")
    assert tier.load("stats", "a" * 64) == b"one"   # refresh "a"
    tier.store("stats", "c" * 64, b"three")          # evicts "b" (LRU)
    assert tier.load("stats", "b" * 64) is None
    assert tier.load("stats", "a" * 64) == b"one"
    snapshot = tier.stats()
    assert snapshot.entries == 2 and snapshot.evictions == 1


# -- disk budget / LRU / pinning ------------------------------------------


def test_disk_budget_evicts_lru_first(tmp_path):
    cache = ArtifactCache(tmp_path,
                          config=CacheConfig(max_bytes=3 * 4096))
    digests = _fill(cache, 2)
    # Touch the first entry so the second becomes least-recently used.
    assert cache.get_arrays("trace", digests[0], ("block_seq",)) is not None
    _fill(cache, 8, size=4096)
    disk = cache.tiers[0].stats()
    assert disk.tier == "disk"
    assert disk.evictions > 0
    assert disk.bytes <= 3 * 4096


def test_evicted_entry_is_a_plain_miss(tmp_path):
    cache = ArtifactCache(tmp_path, config=CacheConfig(max_bytes=4096))
    digests = _fill(cache, 6)
    with collecting() as col:
        survivors = [d for d in digests
                     if cache.get_arrays("trace", d, ("block_seq",))
                     is not None]
    assert len(survivors) < len(digests)
    assert col.metrics.counter("cache.corrupt") == 0   # miss, not corruption


def test_partially_evicted_entry_loads_as_miss(tmp_path):
    """A file deleted behind the tier's back (another process's eviction)
    is a miss and the accounting repairs itself."""
    cache = ArtifactCache(tmp_path, config=CacheConfig(max_bytes=1 << 20))
    digest = _fill(cache, 1)[0]
    _disk_path(cache, "trace", digest).unlink()
    with collecting() as col:
        assert cache.get_arrays("trace", digest, ("block_seq",)) is None
    assert col.metrics.counter("cache.misses") == 1
    assert cache.tiers[0].stats().entries == 0


def test_corrupt_entry_under_budget_still_counts_corrupt(tmp_path):
    cache = ArtifactCache(tmp_path, config=CacheConfig(max_bytes=1 << 20))
    digest = _fill(cache, 1)[0]
    _disk_path(cache, "trace", digest).write_bytes(b"garbage")
    with collecting() as col:
        assert cache.get_arrays("trace", digest, ("block_seq",)) is None
    assert col.metrics.counter("cache.corrupt") == 1


def test_pinned_entries_survive_a_full_lru_sweep(tmp_path):
    cache = ArtifactCache(tmp_path, config=CacheConfig(max_bytes=4096))
    pinned = cache_digest(kind="trace", keep=True)
    cache.put_arrays("trace", pinned, block_seq=np.arange(512))
    with cache.pin_entry("trace", pinned):
        # Flood far past the budget: everything unpinned gets swept.
        _fill(cache, 10)
        assert cache.get_arrays("trace", pinned,
                                ("block_seq",)) is not None
    # After unpin the budget is settled; the entry may now be evicted,
    # but the sweep recorded evictions either way.
    assert cache.tiers[0].stats().evictions > 0


def test_unpin_reenforces_the_budget(tmp_path):
    cache = ArtifactCache(tmp_path, config=CacheConfig(max_bytes=4096))
    big = cache_digest(kind="trace", big=True)
    rng = np.random.default_rng(99)
    with cache.pin_entry("trace", big):
        cache.put_arrays("trace", big,
                         block_seq=rng.integers(0, 2 ** 62, size=4096,
                                                dtype=np.int64))
        over = cache.tiers[0].stats()
        assert over.bytes > 4096          # pins may overshoot the budget
    assert cache.tiers[0].stats().bytes <= 4096


def test_trim_enforces_budget_offline(tmp_path):
    unbounded = ArtifactCache(tmp_path)
    _fill(unbounded, 6)
    budgeted = ArtifactCache(tmp_path, config=CacheConfig(max_bytes=8192))
    evicted = budgeted.enforce_budget()
    assert evicted > 0
    assert budgeted.tiers[0].stats().bytes <= 8192


def test_concurrent_readers_race_eviction_safely(tmp_path):
    """Readers vs. a tiny budget: every load is a clean hit or a clean
    miss — never an exception, never torn data."""
    cache = ArtifactCache(tmp_path, config=CacheConfig(max_bytes=3 * 4096))
    digests = [cache_digest(kind="trace", stress=i) for i in range(6)]
    payloads = {d: np.random.default_rng(7 + i).integers(
                    0, 2 ** 62, size=512, dtype=np.int64)
                for i, d in enumerate(digests)}
    failures: list[str] = []

    def reader(worker: int) -> None:
        for round_ in range(25):
            digest = digests[(worker + round_) % len(digests)]
            arrays = cache.get_arrays("trace", digest, ("block_seq",))
            if arrays is not None and not np.array_equal(
                    arrays["block_seq"], payloads[digest]):
                failures.append(f"torn read of {digest[:8]}")

    def writer(worker: int) -> None:
        for round_ in range(25):
            digest = digests[(worker + round_) % len(digests)]
            cache.put_arrays("trace", digest, block_seq=payloads[digest])

    threads = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
    threads += [threading.Thread(target=writer, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures
    assert cache.tiers[0].stats().evictions > 0


# -- per-tier observability ------------------------------------------------


def test_per_tier_counters_flow_to_obs(tmp_path):
    cache = ArtifactCache(tmp_path, config=CacheConfig(max_bytes=4096,
                                                       hot_entries=2))
    with collecting() as col:
        _fill(cache, 4)
        cache.get_stats(cache_digest(kind="stats", absent=True))
        cache.refresh_gauges()
    counters = col.metrics.counters()
    assert counters["cache.disk.evictions"] > 0
    assert counters["cache.mem.misses"] >= 1
    assert counters["cache.disk.misses"] >= 1
    gauges = col.metrics.gauges()
    assert "cache.disk.bytes" in gauges
    assert "cache.mem.entries" in gauges


def test_stats_document_is_versioned_with_tiers(tmp_path):
    cache = ArtifactCache(tmp_path, config=CacheConfig(hot_entries=2))
    cache.put_stats(cache_digest(kind="stats", doc=1),
                    summarize_errors("classic", [0.1]))
    document = cache.stats().to_dict()
    assert document["schema_version"] == CACHE_STATS_SCHEMA_VERSION
    # Pre-versioning top-level fields preserved for existing consumers.
    assert set(document) >= {"root", "entries", "total_bytes", "by_kind"}
    tiers = {tier["tier"]: tier for tier in document["tiers"]}
    assert set(tiers) == {"mem", "disk"}
    for tier in tiers.values():
        assert set(tier) >= {"hits", "misses", "evictions",
                             "bytes", "entries"}
    json.dumps(document)                                # JSON-serializable


# -- the headline invariant ------------------------------------------------


def test_tiny_budget_table_is_byte_identical_to_unbounded(tmp_path):
    """Eviction is invisible to correctness: a Table-1 slice built under a
    budget small enough to evict continuously byte-matches the unbounded
    build, and the evictions actually happened."""
    config = ExperimentConfig(scale=0.01, repeats=1,
                              machines=("ivybridge",))
    workloads = ("latency_biased",)
    methods = ("classic", "precise")

    unbounded = api.run_table1(config, cache=CacheConfig(root=str(tmp_path / "a")),
                               workloads=workloads, methods=methods)
    with collecting() as col:
        budgeted = api.run_table1(
            config,
            cache=CacheConfig(root=str(tmp_path / "b"), max_bytes=512,
                              hot_entries=2),
            workloads=workloads, methods=methods,
        )
    reference = json.dumps(api.table_document(unbounded), sort_keys=True)
    candidate = json.dumps(api.table_document(budgeted), sort_keys=True)
    assert reference.encode() == candidate.encode()
    assert col.metrics.counter("cache.disk.evictions") > 0


def test_warm_cell_survives_hot_tier(tmp_path):
    """A budgeted, hot-tiered cache still short-circuits re-evaluation."""
    config = ExperimentConfig(scale=0.01, repeats=1)
    spec = CellSpec("ivybridge", "latency_biased", "precise")
    cache_config = CacheConfig(root=str(tmp_path), max_bytes=1 << 22,
                               hot_entries=8)
    cold = Harness(config, cache=cache_config.build()).evaluate_cell(spec)
    warm = Harness(config, cache=cache_config.build())
    with collecting() as col:
        assert warm.evaluate_cell(spec) == cold
    assert col.metrics.counter("harness.cells_evaluated") == 0
    assert col.metrics.counter("cache.hits") == 1


def test_parallel_build_matches_serial_under_budget(tmp_path):
    """Worker processes rebuild the budgeted stack from the shipped
    CacheConfig; results stay bit-identical to the serial path."""
    config = ExperimentConfig(scale=0.01, repeats=1,
                              machines=("ivybridge",))
    workloads = ("latency_biased", "callchain")
    methods = ("classic", "precise")
    serial = api.run_table1(config, workloads=workloads, methods=methods)
    parallel = api.run_table1(
        config, jobs=2,
        cache=CacheConfig(root=str(tmp_path), max_bytes=16 * 4096),
        workloads=workloads, methods=methods,
    )
    assert json.dumps(api.table_document(serial), sort_keys=True) \
        == json.dumps(api.table_document(parallel), sort_keys=True)


def test_disk_tier_seeds_accounting_from_existing_store(tmp_path):
    """A fresh process over an existing store learns its occupancy lazily
    (mtime order) and can enforce a budget immediately."""
    _fill(ArtifactCache(tmp_path), 5)
    tier = DiskTier(ArtifactCache(tmp_path).store_dir, max_bytes=8192)
    snapshot = tier.stats()
    assert snapshot.entries == 5 and snapshot.bytes > 8192
    assert tier.trim() > 0
    assert tier.stats().bytes <= 8192


def test_unbounded_disk_tier_answers_hits_without_listing_the_store(
        tmp_path, monkeypatch):
    """An unbounded tier keeps no LRU books until something reads them:
    a fresh cache over a populated store serves hits and stores without
    walking the store, and stats() still counts every entry (keeping the
    books current from then on)."""
    digests = _fill(ArtifactCache(tmp_path), 5)
    cache = ArtifactCache(tmp_path)

    def listed(self, pattern):
        raise AssertionError(f"listed the store: {self} {pattern}")

    with monkeypatch.context() as patch:
        patch.setattr(Path, "rglob", listed)
        assert cache.get_arrays("trace", digests[0],
                                ("block_seq",)) is not None
        cache.put_arrays("trace", cache_digest(kind="trace", extra=1),
                         block_seq=np.arange(8))
    assert cache.tiers[0].stats().entries == 6
    assert cache.stats().entries == 6
    with monkeypatch.context() as patch:
        patch.setattr(Path, "rglob", listed)
        cache.put_arrays("trace", cache_digest(kind="trace", extra=2),
                         block_seq=np.arange(8))
        assert cache.tiers[0].stats().entries == 7
