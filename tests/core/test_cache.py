"""Unit tests for the persistent artifact cache."""

import numpy as np
import pytest

from repro.obs import collecting
from repro.core.cache import (
    CACHE_FORMAT_VERSION,
    ArtifactCache,
    cache_digest,
    default_cache_root,
    resolve_cache,
)
from repro.core.experiment import CellSpec, ExperimentConfig, Harness
from repro.core.stats import summarize_errors


@pytest.fixture()
def cache(tmp_path):
    return ArtifactCache(tmp_path / "store")


def test_digest_is_stable_and_sensitive():
    base = cache_digest(kind="stats", workload="mcf", period=500)
    assert base == cache_digest(kind="stats", workload="mcf", period=500)
    assert base != cache_digest(kind="stats", workload="mcf", period=501)
    assert base != cache_digest(kind="stats", workload="povray", period=500)
    assert len(base) == 64


def test_stats_round_trip(cache):
    stats = summarize_errors("lbr", [0.125, 0.25])
    digest = cache_digest(kind="stats", x=1)
    assert cache.get_stats(digest) is None           # cold miss
    cache.put_stats(digest, stats)
    loaded = cache.get_stats(digest)
    assert loaded == stats
    assert loaded.errors == (0.125, 0.25)


def test_arrays_round_trip(cache):
    digest = cache_digest(kind="trace", x=2)
    seq = np.arange(100, dtype=np.int32)
    cache.put_arrays("trace", digest, block_seq=seq)
    loaded = cache.get_arrays("trace", digest, ("block_seq",))
    np.testing.assert_array_equal(loaded["block_seq"], seq)


def test_missing_array_member_is_a_miss(cache):
    digest = cache_digest(kind="reference", x=3)
    cache.put_arrays("reference", digest, only_one=np.zeros(4))
    assert cache.get_arrays("reference", digest,
                            ("only_one", "missing")) is None


def test_corrupt_entries_load_as_misses(cache):
    stats = summarize_errors("classic", [0.5])
    digest = cache_digest(kind="stats", x=4)
    cache.put_stats(digest, stats)
    disk = cache.tiers[-1]
    path = disk.path("stats", digest)
    path.write_text("{ not json", encoding="utf-8")
    with collecting() as col:
        assert cache.get_stats(digest) is None
    assert col.metrics.counter("cache.corrupt") == 1
    assert col.metrics.counter("cache.misses") == 1

    adigest = cache_digest(kind="trace", x=5)
    cache.put_arrays("trace", adigest, block_seq=np.arange(4))
    disk.path("trace", adigest).write_bytes(b"garbage")
    assert cache.get_arrays("trace", adigest, ("block_seq",)) is None


def test_hit_miss_counters_flow_to_obs(cache):
    digest = cache_digest(kind="stats", x=6)
    with collecting() as col:
        assert cache.get_stats(digest) is None
        cache.put_stats(digest, summarize_errors("classic", [0.1]))
        assert cache.get_stats(digest) is not None
    counters = col.metrics.counters()
    assert counters["cache.misses"] == 1
    assert counters["cache.hits"] == 1
    assert counters["cache.writes"] == 1


def test_stats_and_clear(cache):
    assert cache.stats().entries == 0
    cache.put_stats(cache_digest(x=7), summarize_errors("classic", [0.1]))
    cache.put_arrays("trace", cache_digest(x=8), block_seq=np.arange(3))
    snapshot = cache.stats()
    assert snapshot.entries == 2
    assert snapshot.by_kind == {"stats": 1, "trace": 1}
    assert snapshot.total_bytes > 0
    assert "entries:    2" in snapshot.render()
    assert cache.clear() == 2
    assert cache.stats().entries == 0


def test_versioned_layout(cache):
    cache.put_stats(cache_digest(x=9), summarize_errors("classic", [0.1]))
    assert (cache.root / f"v{CACHE_FORMAT_VERSION}" / "stats").is_dir()


def test_resolve_cache(tmp_path):
    assert resolve_cache(None) is None
    assert resolve_cache(False) is None
    assert resolve_cache(True).root == default_cache_root()
    assert resolve_cache(tmp_path).root == tmp_path
    cache = ArtifactCache(tmp_path)
    assert resolve_cache(cache) is cache


def test_cache_dir_env_overrides_default(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
    assert ArtifactCache().root == tmp_path / "env"


def test_harness_trace_and_reference_round_trip(tmp_path):
    config = ExperimentConfig(scale=0.01, repeats=1)
    cold = Harness(config, cache=ArtifactCache(tmp_path))
    trace = cold.trace("latency_biased")
    reference = cold.reference("latency_biased")

    warm = Harness(config, cache=ArtifactCache(tmp_path))
    with collecting() as col:
        warm_trace = warm.trace("latency_biased")
        warm_reference = warm.reference("latency_biased")
    np.testing.assert_array_equal(warm_trace.block_seq, trace.block_seq)
    np.testing.assert_array_equal(warm_reference.block_instr_counts,
                                  reference.block_instr_counts)
    counters = col.metrics.counters()
    assert counters["cache.hits"] == 2
    assert "interpret.blocks" not in counters   # interpreter never ran


def test_concurrent_writers_leave_no_partial_entries(tmp_path):
    """Racing writers to the same digests must never corrupt an entry.

    Each write lands in a uniquely-named temp file and is published with an
    atomic rename, so readers either miss or see a complete entry — never
    a torn one — and no orphan temp files survive.
    """
    import threading

    cache = ArtifactCache(tmp_path / "store")
    digests = [cache_digest(kind="stats", cell=i) for i in range(8)]
    stats_by_digest = {
        digest: summarize_errors("classic", [0.1 * (i + 1)])
        for i, digest in enumerate(digests)
    }
    array_digest = cache_digest(kind="trace", shared=True)
    payload = np.arange(5000, dtype=np.int64)
    failures: list[str] = []

    def hammer(worker: int) -> None:
        for round_ in range(20):
            digest = digests[(worker + round_) % len(digests)]
            cache.put_stats(digest, stats_by_digest[digest])
            loaded = cache.get_stats(digest)
            if loaded is not None and loaded != stats_by_digest[digest]:
                failures.append(f"torn stats for {digest[:8]}")
            cache.put_arrays("trace", array_digest, block_seq=payload)
            arrays = cache.get_arrays("trace", array_digest, ("block_seq",))
            if arrays is not None and not np.array_equal(
                    arrays["block_seq"], payload):
                failures.append("torn array entry")

    threads = [threading.Thread(target=hammer, args=(i,)) for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert not failures
    for digest in digests:
        assert cache.get_stats(digest) == stats_by_digest[digest]
    leftovers = list((tmp_path / "store").rglob("*.tmp"))
    assert leftovers == []


def test_harness_cell_warm_cache_skips_evaluation(tmp_path):
    config = ExperimentConfig(scale=0.01, repeats=1)
    spec = CellSpec("ivybridge", "latency_biased", "precise")
    cold_stats = Harness(config, cache=ArtifactCache(tmp_path)) \
        .evaluate_cell(spec)

    warm = Harness(config, cache=ArtifactCache(tmp_path))
    with collecting() as col:
        warm_stats = warm.evaluate_cell(spec)
    assert warm_stats == cold_stats
    assert col.metrics.counter("harness.cells_evaluated") == 0
    assert col.metrics.counter("cache.hits") == 1
