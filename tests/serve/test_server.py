"""Behavior tests against a live in-process serve daemon.

One module-scoped server (ephemeral port, persistent cache) backs the
happy-path tests; backpressure and deadline tests build their own small
servers with the worker pool disabled so queue states are deterministic.
"""

import http.client
import json
import time
import urllib.error
import urllib.request

import pytest

from repro import api
from repro.core.cache import (
    CHECKSUM_HEADER,
    ArtifactCache,
    body_sha256,
    cache_digest,
)
from repro.core.cli import main
from repro.serve import ProfilingServer, ServerConfig

FAST_CELL = {"machine": "ivybridge", "workload": "latency_biased",
             "method": "precise", "scale": 0.01, "repeats": 1}


def post(url: str, document: dict) -> tuple[int, dict[str, str], bytes]:
    """POST a JSON document; returns (status, headers, body) without raising."""
    request = urllib.request.Request(
        url, data=json.dumps(document).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


def get(url: str) -> tuple[int, bytes]:
    try:
        with urllib.request.urlopen(url) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def scrape_counters(url: str) -> dict[str, float]:
    """Parse the /metrics exposition text into {metric_name: value}."""
    _, body = get(url + "/metrics")
    counters = {}
    for line in body.decode("utf-8").splitlines():
        if line.startswith("#") or not line.strip():
            continue
        name, value = line.rsplit(" ", 1)
        counters[name] = float(value)
    return counters


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    cache = ArtifactCache(tmp_path_factory.mktemp("serve-cache"))
    instance = ProfilingServer(ServerConfig(
        port=0, workers=2, queue_size=8, cache=cache,
    ))
    instance.start()
    yield instance
    instance.drain(timeout=30.0)
    instance.stop()


@pytest.fixture()
def lame_server():
    """A server whose workers never start: jobs stay QUEUED forever."""
    instance = ProfilingServer(ServerConfig(port=0, workers=1, queue_size=2,
                                            default_deadline_s=0.2))
    instance.pool.start = lambda: None
    instance.start()
    yield instance
    instance.queue.close()
    instance.stop()


def test_served_evaluate_is_byte_identical_to_api(server):
    status, _, served = post(server.url + "/v1/evaluate", FAST_CELL)
    assert status == 200
    request = api.EvaluateRequest.from_dict(FAST_CELL)
    assert served == api.evaluate_request(request).to_json().encode("utf-8")


def test_served_evaluate_is_byte_identical_to_cli_json(server, capsys):
    status, _, served = post(server.url + "/v1/evaluate", FAST_CELL)
    assert status == 200
    exit_code = main([
        "run", "--machine", FAST_CELL["machine"],
        "--workload", FAST_CELL["workload"], "--method", FAST_CELL["method"],
        "--scale", str(FAST_CELL["scale"]),
        "--repeats", str(FAST_CELL["repeats"]), "--json", "--quiet",
    ])
    assert exit_code == 0
    assert capsys.readouterr().out.encode("utf-8") == served


def test_warm_cache_serves_without_resimulation(server):
    post(server.url + "/v1/evaluate", FAST_CELL)        # ensure cached
    before = scrape_counters(server.url)
    status, _, _ = post(server.url + "/v1/evaluate", FAST_CELL)
    assert status == 200
    after = scrape_counters(server.url)
    hits = (after.get("repro_cache_hits_total", 0)
            - before.get("repro_cache_hits_total", 0))
    evaluated = (after.get("repro_harness_cells_evaluated_total", 0)
                 - before.get("repro_harness_cells_evaluated_total", 0))
    assert hits > 0                  # answered from the artifact cache
    assert evaluated == 0            # zero re-simulation


def test_blank_cell_served_as_blank_document(server):
    payload = dict(FAST_CELL, machine="magnycours", method="lbr")
    status, _, body = post(server.url + "/v1/evaluate", payload)
    assert status == 200
    document = json.loads(body)
    assert document["blank"] is True
    assert document["stats"] is None


def test_table_endpoint_matches_direct_build(server):
    payload = {"table": 1, "scale": 0.01, "repeats": 1,
               "methods": ["classic"], "workloads": ["latency_biased"],
               "deadline_s": 120}
    status, _, body = post(server.url + "/v1/table", payload)
    assert status == 200
    document = json.loads(body)
    assert document["schema_version"] == api.API_SCHEMA_VERSION
    table = api.table_from_document(document["table"])
    direct = api.run_table1(api.ExperimentConfig(scale=0.01, repeats=1),
                            methods=("classic",),
                            workloads=("latency_biased",))
    assert table.cells == direct.cells


def test_async_submit_then_poll(server):
    status, _, body = post(server.url + "/v1/evaluate",
                           dict(FAST_CELL, wait=False))
    assert status == 202
    ticket = json.loads(body)
    assert ticket["status_url"] == f"/v1/jobs/{ticket['job_id']}"
    for _ in range(200):
        status, body = get(server.url + ticket["status_url"])
        document = json.loads(body)
        if document["state"] in ("done", "failed", "expired"):
            break
        time.sleep(0.02)
    assert status == 200
    assert document["state"] == "done"
    assert document["result"]["request"]["machine"] == FAST_CELL["machine"]


def test_healthz_reports_ok(server):
    status, body = get(server.url + "/healthz")
    assert status == 200
    health = json.loads(body)
    assert health["status"] == "ok"
    assert health["workers"] == 2
    assert health["uptime_s"] >= 0


def test_metrics_exposes_serve_counters(server):
    counters = scrape_counters(server.url)
    assert counters["repro_serve_requests_total"] > 0
    assert counters["repro_serve_jobs_done_total"] > 0


def test_unknown_routes_and_jobs_404(server):
    assert get(server.url + "/nope")[0] == 404
    assert get(server.url + "/v1/jobs/job-999999-deadbeef")[0] == 404
    assert post(server.url + "/v1/nope", {})[0] == 404


def test_invalid_requests_400(server):
    cases = [
        {"machine": "ivybridge"},                              # missing fields
        dict(FAST_CELL, bogus=1),                              # unknown field
        dict(FAST_CELL, machine="z80"),                        # unknown machine
        dict(FAST_CELL, repeats=0),                            # bad value
        dict(FAST_CELL, schema_version=api.API_SCHEMA_VERSION + 1),
        dict(FAST_CELL, engine="fast"),                        # no such option
    ]
    for payload in cases:
        status, _, body = post(server.url + "/v1/evaluate", payload)
        assert status == 400, payload
        assert "error" in json.loads(body)
    status, _, body = post(server.url + "/v1/table",
                           {"table": 1, "engine": "reference"})
    assert status == 400
    assert "unknown request field" in json.loads(body)["error"]
    request = urllib.request.Request(
        server.url + "/v1/evaluate", data=b"{not json",
        headers={"Content-Type": "application/json"},
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request)
    assert excinfo.value.code == 400


def test_keep_alive_responses_are_not_delayed(server):
    """Each response leaves in one send: a header-then-body pair of small
    writes on a kept-alive connection stalls the body behind Nagle's
    algorithm until the client's delayed ACK (tens of ms per response)."""
    host, port = server.address
    connection = http.client.HTTPConnection(host, port, timeout=10)
    try:
        started = time.perf_counter()
        for _ in range(10):
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 200
            response.read()
        elapsed = time.perf_counter() - started
    finally:
        connection.close()
    assert elapsed < 0.2, f"10 kept-alive requests took {elapsed:.3f}s"


def test_full_queue_returns_429_with_retry_after(lame_server):
    url = lame_server.url + "/v1/evaluate"
    for _ in range(2):                                  # fill queue_size=2
        status, _, _ = post(url, dict(FAST_CELL, wait=False))
        assert status == 202
    status, headers, body = post(url, dict(FAST_CELL, wait=False))
    assert status == 429
    assert int(headers["Retry-After"]) >= 1
    assert "full" in json.loads(body)["error"]


def put(url: str, data: bytes,
        headers: dict[str, str] | None = None) -> tuple[int, bytes]:
    request = urllib.request.Request(url, data=data, method="PUT",
                                     headers=headers or {})
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def test_cache_entry_roundtrip_with_checksum(server):
    digest = cache_digest(cell="served-roundtrip")
    body = json.dumps({"format": 1, "method": "classic",
                       "errors": [0.5]}).encode("utf-8")
    before = scrape_counters(server.url)
    status, _ = put(server.url + f"/v1/cache/stats/{digest}", body,
                    headers={CHECKSUM_HEADER: body_sha256(body)})
    assert status == 200

    request = urllib.request.Request(server.url + f"/v1/cache/stats/{digest}")
    with urllib.request.urlopen(request) as response:
        assert response.status == 200
        served = response.read()
        assert response.headers[CHECKSUM_HEADER] == body_sha256(served)
    assert served == body
    after = scrape_counters(server.url)
    assert after["repro_serve_cache_entries_stored_total"] == \
        before.get("repro_serve_cache_entries_stored_total", 0) + 1
    assert after["repro_serve_cache_entries_served_total"] == \
        before.get("repro_serve_cache_entries_served_total", 0) + 1


def test_cache_routes_reject_bad_addresses(server):
    digest = cache_digest(cell="bad-addresses")
    assert get(server.url + f"/v1/cache/stats/{digest}")[0] == 404  # absent
    assert get(server.url + f"/v1/cache/bogus/{digest}")[0] == 404  # bad kind
    assert get(server.url + "/v1/cache/stats/nothex")[0] == 404
    assert put(server.url + "/v1/cache/bogus/" + digest, b"x")[0] == 400
    assert put(server.url + "/v1/cache/stats/nothex", b"x")[0] == 400
    assert put(server.url + f"/v1/cache/stats/{digest}", b"")[0] == 400


def test_cache_put_with_wrong_checksum_is_rejected(server):
    digest = cache_digest(cell="corrupt-put")
    status, body = put(server.url + f"/v1/cache/stats/{digest}", b"payload",
                       headers={CHECKSUM_HEADER: "0" * 64})
    assert status == 400
    assert "checksum" in json.loads(body)["error"]
    assert get(server.url + f"/v1/cache/stats/{digest}")[0] == 404  # nothing stored
    counters = scrape_counters(server.url)
    assert counters["repro_serve_cache_put_corrupt_total"] >= 1


def test_cache_put_without_a_cache_is_404(lame_server):
    digest = cache_digest(cell="cacheless")
    assert put(lame_server.url + f"/v1/cache/stats/{digest}", b"x")[0] == 404
    assert get(lame_server.url + f"/v1/cache/stats/{digest}")[0] == 404


def test_draining_503_carries_retry_after(lame_server):
    # Regression: the 429 path always sent Retry-After, the 503 drain
    # path did not — coordinators need both to back off uniformly.
    lame_server.draining = True
    try:
        status, headers, body = post(lame_server.url + "/v1/evaluate",
                                     dict(FAST_CELL, wait=False))
    finally:
        lame_server.draining = False
    assert status == 503
    assert "draining" in json.loads(body)["error"]
    assert float(headers["Retry-After"]) >= 1


def test_waited_request_past_deadline_returns_504(lame_server):
    started = time.monotonic()
    status, _, body = post(lame_server.url + "/v1/evaluate",
                           dict(FAST_CELL, deadline_s=0.2))
    assert status == 504
    assert time.monotonic() - started < 5.0
    document = json.loads(body)
    # The 504 expired the queued job; its status stays pollable.
    status, body = get(lame_server.url + document["status_url"])
    assert status == 200
    assert json.loads(body)["state"] == "expired"
