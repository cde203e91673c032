"""Cache federation: a remote tier against a live daemon's /v1/cache routes.

A "hub" daemon holds the shared store; nodes built from
``CacheConfig(remote=...)`` read through it and push writes back.
Corruption — in transit or at rest — must always degrade to a miss, and a
warm federated node must answer evaluations with zero re-simulation.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro import api
from repro.core.cache import (
    CHECKSUM_HEADER,
    ArtifactCache,
    CacheConfig,
    cache_digest,
)
from repro.core.stats import AccuracyStats
from repro.obs import collecting
from repro.serve import ProfilingServer, ServerConfig

STATS = AccuracyStats(method="classic", errors=(1.0, 2.0, 3.0))


def _node(root, remote: str, timeout_s: float = 10.0) -> ArtifactCache:
    """A local store at ``root`` federated with the daemon at ``remote``."""
    return CacheConfig(root=str(root), remote=remote,
                       remote_timeout_s=timeout_s).build()


@pytest.fixture()
def hub(tmp_path):
    """A serve daemon sharing its artifact cache over /v1/cache."""
    server = ProfilingServer(ServerConfig(
        port=0, workers=1, queue_size=4,
        cache=ArtifactCache(tmp_path / "hub"),
    ))
    server.start()
    yield server
    server.stop()


def test_remote_hit_is_written_through_locally(hub, tmp_path):
    digest = cache_digest(cell="remote-hit")
    hub.config.cache.put_stats(digest, STATS)

    node = _node(tmp_path / "node", hub.url)
    with collecting() as collector:
        assert node.get_stats(digest) == STATS
    counters = collector.metrics.counters()
    assert counters["cache.remote_hits"] == 1
    assert counters["cache.hits"] == 1

    # Write-through: the second lookup never touches the network.
    with collecting() as collector:
        assert node.get_stats(digest) == STATS
    counters = collector.metrics.counters()
    assert "cache.remote_hits" not in counters
    assert counters["cache.hits"] == 1


def test_remote_miss_is_a_plain_miss(hub, tmp_path):
    node = _node(tmp_path / "node", hub.url)
    with collecting() as collector:
        assert node.get_stats(cache_digest(cell="absent")) is None
    counters = collector.metrics.counters()
    assert counters["cache.remote_misses"] == 1
    assert counters["cache.misses"] == 1


def test_local_write_is_pushed_to_the_hub(hub, tmp_path):
    digest = cache_digest(cell="write-through")
    node_a = _node(tmp_path / "a", hub.url)
    with collecting() as collector:
        node_a.put_stats(digest, STATS)
    assert collector.metrics.counters()["cache.remote_writes"] == 1
    assert hub.config.cache.get_stats(digest) == STATS

    # A second node now sees node A's work through the hub.
    node_b = _node(tmp_path / "b", hub.url)
    assert node_b.get_stats(digest) == STATS


def test_corrupt_stored_entry_is_a_miss(hub, tmp_path):
    # The hub serves the garbage faithfully (its transfer checksum is of
    # the stored bytes), so the *format* layer must reject it.
    digest = cache_digest(cell="rotten")
    assert hub.config.cache.write_entry("stats", digest, b"not json at all")
    node = _node(tmp_path / "node", hub.url)
    with collecting() as collector:
        assert node.get_stats(digest) is None
    counters = collector.metrics.counters()
    assert counters["cache.corrupt"] == 1


class _LyingHandler(BaseHTTPRequestHandler):
    """Serves bodies whose checksum header never matches (bit rot in
    transit, a proxy rewriting bodies, a hostile cache)."""

    def do_GET(self):  # noqa: N802
        body = json.dumps({"format": 1, "method": "classic",
                           "errors": [1.0]}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.send_header(CHECKSUM_HEADER, "0" * 64)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):  # noqa: A002
        pass


def test_mismatched_transfer_checksum_is_a_miss(tmp_path):
    liar = ThreadingHTTPServer(("127.0.0.1", 0), _LyingHandler)
    thread = threading.Thread(target=liar.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = liar.server_address[:2]
        node = _node(tmp_path / "node", f"http://{host}:{port}")
        with collecting() as collector:
            assert node.get_stats(cache_digest(cell="lied-about")) is None
        counters = collector.metrics.counters()
        assert counters["cache.remote_corrupt"] == 1
        assert "cache.remote_hits" not in counters
    finally:
        liar.shutdown()
        liar.server_close()


def test_dead_remote_degrades_to_a_local_cache(tmp_path):
    node = _node(tmp_path / "node", "http://127.0.0.1:9", timeout_s=0.5)
    digest = cache_digest(cell="offline")
    with collecting() as collector:
        node.put_stats(digest, STATS)          # must not raise
        assert node.get_stats(digest) == STATS  # local store still works
    assert collector.metrics.counters()["cache.remote_errors"] >= 1


def test_concurrent_puts_of_the_same_digest_are_safe(hub, tmp_path):
    digest = cache_digest(cell="stampede")
    nodes = [_node(tmp_path / f"n{i}", hub.url) for i in range(6)]
    threads = [threading.Thread(target=node.put_stats, args=(digest, STATS))
               for node in nodes]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    # Last-rename-wins with complete content: the entry is whole and valid
    # on the hub and through a fresh reader.
    assert hub.config.cache.get_stats(digest) == STATS
    reader = _node(tmp_path / "reader", hub.url)
    assert reader.get_stats(digest) == STATS


def test_warm_federated_run_evaluates_nothing(hub, tmp_path):
    request = api.EvaluateRequest(
        machine="ivybridge", workload="latency_biased", method="precise",
        scale=0.01, repeats=1,
    )
    node_a = _node(tmp_path / "a", hub.url)
    warm = api.evaluate_request(request, cache=node_a)

    # A different node, cold local store: everything it needs must come
    # from the hub, with zero re-simulation.
    node_b = _node(tmp_path / "b", hub.url)
    with collecting() as collector:
        served = api.evaluate_request(request, cache=node_b)
    counters = collector.metrics.counters()
    assert "harness.cells_evaluated" not in counters
    assert counters["cache.remote_hits"] >= 1
    assert served.to_json() == warm.to_json()
