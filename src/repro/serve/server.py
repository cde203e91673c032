"""The stdlib HTTP daemon: routing, backpressure, deadlines, drain.

Request flow for ``POST /v1/evaluate`` / ``POST /v1/table``:

1. transport fields (``wait``, ``deadline_s``) split off the JSON body,
2. the payload document validated through the versioned request types
   (:class:`repro.api.EvaluateRequest` / :class:`TableRequest`) — bad
   documents → 400, never a half-parsed job,
3. submission to the bounded queue — full → 429 + ``Retry-After``,
   draining → 503,
4. ``wait=True``: block until the job finishes (result bytes come straight
   from the worker, so served and CLI evaluations are byte-identical) or
   the deadline passes → 504; ``wait=False``: 202 + job id to poll at
   ``GET /v1/jobs/<id>``.

Graceful drain (SIGTERM path): :meth:`ProfilingServer.drain` closes the
queue, lets every in-flight and already-queued job finish, flushes the
metrics registry to any trace sink, then stops the listener.  In-flight
waited requests are answered normally during the drain.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro._version import __version__
from repro.api import EvaluateRequest
from repro.errors import RequestError, ServeError
from repro.obs import Collector, count, get_collector, install, observe
from repro.obs.export import render_prometheus
from repro.obs.log import get_logger
from repro.core.cache import (
    CHECKSUM_HEADER,
    ArtifactCache,
    body_sha256,
    valid_entry_address,
)
from repro.serve.jobs import Job, JobQueue, JobState, QueueFull
from repro.serve.protocol import TableRequest, split_transport
from repro.serve.workers import WorkerPool

_log = get_logger("serve")

#: Largest accepted request body (profiling requests are tiny documents).
MAX_BODY_BYTES = 1 << 20

#: Largest accepted federated cache entry (full-scale traces compress to
#: a few MB; this caps a hostile or runaway PUT, not a real artifact).
MAX_CACHE_ENTRY_BYTES = 1 << 28

#: ``Retry-After`` seconds sent with 503 drain responses — a draining
#: worker is leaving, so coordinators should give the fleet a moment to
#: rebalance rather than hammering the socket until it closes.
DRAIN_RETRY_AFTER_S = 5


@dataclass
class ServerConfig:
    """Knobs of one daemon instance (see ``repro-pmu serve --help``)."""

    host: str = "127.0.0.1"
    port: int = 8787
    workers: int = 2
    queue_size: int = 16
    default_deadline_s: float = 30.0
    table_jobs: int = 1
    drain_timeout_s: float = 60.0
    cache: ArtifactCache | None = None


class _Handler(BaseHTTPRequestHandler):
    """Routes one HTTP exchange; all state lives on ``server.app``."""

    protocol_version = "HTTP/1.1"
    server_version = f"repro-pmu/{__version__}"
    # Buffer the response so headers and body leave in one send when
    # handle_one_request flushes.  Two small sends on a kept-alive
    # connection hold the body back behind Nagle's algorithm until the
    # client's delayed ACK, tens of milliseconds per response.
    wbufsize = -1

    @property
    def app(self) -> "ProfilingServer":
        return self.server.app

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        _log.debug("%s %s", self.address_string(), format % args)

    # -- plumbing ----------------------------------------------------------

    def _send_bytes(self, code: int, body: bytes,
                    content_type: str = "application/json",
                    extra_headers: dict[str, str] | None = None) -> None:
        count(f"serve.http_{code}")
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, code: int, document: dict,
                   extra_headers: dict[str, str] | None = None) -> None:
        body = (json.dumps(document, sort_keys=True) + "\n").encode("utf-8")
        self._send_bytes(code, body, extra_headers=extra_headers)

    def _read_body(self) -> object:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise RequestError(
                f"request body too large ({length} > {MAX_BODY_BYTES} bytes)"
            )
        raw = self.rfile.read(length) if length else b""
        try:
            return json.loads(raw or b"{}")
        except json.JSONDecodeError as exc:
            raise RequestError(f"request body is not valid JSON: {exc}") \
                from None

    # -- routes ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        count("serve.requests")
        if self.path == "/healthz":
            self._send_json(200, self.app.health())
        elif self.path == "/metrics":
            self._send_bytes(
                200, self.app.metrics_text().encode("utf-8"),
                content_type="text/plain; version=0.0.4",
            )
        elif self.path.startswith("/v1/jobs/"):
            job = self.app.queue.get(self.path[len("/v1/jobs/"):])
            if job is None:
                self._send_json(404, {"error": "unknown job id"})
            elif job.state is JobState.DONE and job.body is not None:
                document = job.to_dict()
                document["result"] = json.loads(job.body)
                self._send_json(200, document)
            else:
                self._send_json(200, job.to_dict())
        elif self.path.startswith("/v1/cache/"):
            self._get_cache_entry()
        else:
            self._send_json(404, {"error": f"unknown route {self.path}"})

    # -- cache federation (DESIGN.md §10) ----------------------------------

    def _cache_address(self) -> tuple[str, str] | None:
        """Parse ``/v1/cache/<kind>/<digest>``; ``None`` when malformed."""
        parts = self.path[len("/v1/cache/"):].split("/")
        if len(parts) != 2 or not valid_entry_address(*parts):
            return None
        return parts[0], parts[1]

    def _get_cache_entry(self) -> None:
        address = self._cache_address()
        if address is None:
            self._send_json(404, {"error": "malformed cache address "
                                           "(want /v1/cache/<kind>/<digest>)"})
            return
        cache = self.app.config.cache
        if cache is None:
            self._send_json(404, {"error": "no such cache entry"})
            return
        # Pin across read *and* send: under a byte budget, the LRU sweep
        # must never delete an entry while it is being streamed out.
        with cache.pin_entry(*address):
            data = cache.read_entry(*address)
            if data is None:
                self._send_json(404, {"error": "no such cache entry"})
                return
            count("serve.cache_entries_served")
            self._send_bytes(200, data,
                             content_type="application/octet-stream",
                             extra_headers={CHECKSUM_HEADER:
                                            body_sha256(data)})

    def do_PUT(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        count("serve.requests")
        if not self.path.startswith("/v1/cache/"):
            self._send_json(404, {"error": f"unknown route {self.path}"})
            return
        address = self._cache_address()
        if address is None:
            self._send_json(400, {"error": "malformed cache address "
                                           "(want /v1/cache/<kind>/<digest>)"})
            return
        cache = self.app.config.cache
        if cache is None:
            self._send_json(404, {"error": "this daemon has no cache "
                                           "(start with --cache/--cache-dir)"})
            return
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0 or length > MAX_CACHE_ENTRY_BYTES:
            self._send_json(400, {"error": f"cache entry body must be "
                                           f"1..{MAX_CACHE_ENTRY_BYTES} "
                                           f"bytes, got {length}"})
            return
        data = self.rfile.read(length)
        claimed = self.headers.get(CHECKSUM_HEADER)
        if claimed is not None and claimed != body_sha256(data):
            count("serve.cache_put_corrupt")
            self._send_json(400, {"error": "body does not match its "
                                           f"{CHECKSUM_HEADER} checksum"})
            return
        if not cache.write_entry(*address, data):
            self._send_json(400, {"error": "unstorable cache address"})
            return
        count("serve.cache_entries_stored")
        self._send_json(200, {"stored": True})

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        # Request latency is measured here at the HTTP layer (queue wait +
        # evaluation + response marshalling, monotonic clock) so a load
        # generator can cross-check its client-side percentiles against
        # the daemon's own serve.request_latency_s histogram on /metrics.
        started = time.perf_counter()
        try:
            self._do_post()
        finally:
            observe("serve.request_latency_s",
                    time.perf_counter() - started)

    def _do_post(self) -> None:
        count("serve.requests")
        if self.path not in ("/v1/evaluate", "/v1/table"):
            self._send_json(404, {"error": f"unknown route {self.path}"})
            return
        if self.app.draining:
            # Like the 429 path, 503 carries Retry-After so clients (the
            # distributed coordinator in particular) back off uniformly.
            self._send_json(
                503, {"error": "server is draining"},
                extra_headers={"Retry-After": str(DRAIN_RETRY_AFTER_S)},
            )
            return
        try:
            payload, transport = split_transport(self._read_body())
            if self.path == "/v1/evaluate":
                kind = "evaluate"
                request = EvaluateRequest.from_dict(payload).resolved()
            else:
                kind = "table"
                request = TableRequest.from_dict(payload)
        except RequestError as exc:
            self._send_json(400, {"error": str(exc)})
            return

        deadline_s = transport.resolve_deadline(
            self.app.config.default_deadline_s
        )
        try:
            job = self.app.queue.submit(kind, request, deadline_s=deadline_s)
        except QueueFull as exc:
            self._send_json(
                429, {"error": str(exc)},
                extra_headers={"Retry-After": str(exc.retry_after_s)},
            )
            return
        except ServeError as exc:        # closed between check and submit
            self._send_json(
                503, {"error": str(exc)},
                extra_headers={"Retry-After": str(DRAIN_RETRY_AFTER_S)},
            )
            return

        if not transport.wait:
            self._send_json(202, {
                "job_id": job.id,
                "status_url": f"/v1/jobs/{job.id}",
            })
            return
        self._respond_when_done(job)

    def _respond_when_done(self, job: Job) -> None:
        """Block the handler thread until the job finishes or expires."""
        remaining = job.remaining_s()
        if not job.done.wait(timeout=remaining):
            # Deadline passed while queued or running.  The worker's abort
            # hook stops the evaluation at the next repeat boundary; a job
            # still sitting in the queue is dropped right here.
            self.app.queue.expire_queued(job)
            count("serve.deadline_timeouts")
            self._send_json(504, {
                "error": "deadline exceeded",
                "job_id": job.id,
                "status_url": f"/v1/jobs/{job.id}",
            })
            return
        if job.state is JobState.DONE:
            self._send_bytes(200, job.body)
        elif job.state is JobState.EXPIRED:
            self._send_json(504, {"error": job.error or "deadline exceeded",
                                  "job_id": job.id})
        else:
            self._send_json(500, {"error": job.error or "evaluation failed",
                                  "job_id": job.id})


class ProfilingServer:
    """One daemon instance: HTTP listener + bounded queue + worker pool.

    Programmatic lifecycle (the CLI adds signal handling around this)::

        server = ProfilingServer(ServerConfig(port=0))
        server.start()
        ... requests against server.address ...
        server.drain()       # graceful: finish everything in flight
        server.stop()
    """

    def __init__(self, config: ServerConfig | None = None) -> None:
        self.config = config or ServerConfig()
        self.queue = JobQueue(maxsize=self.config.queue_size)
        self.pool = WorkerPool(
            self.queue, cache=self.config.cache,
            workers=self.config.workers, table_jobs=self.config.table_jobs,
        )
        self.draining = False
        self._httpd: ThreadingHTTPServer | None = None
        self._http_thread: threading.Thread | None = None
        self._owns_collector = False
        self._started_ts: float | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Bind the listener, start workers, begin serving in a thread."""
        # /metrics needs a live registry; respect an already-installed
        # collector (e.g. the CLI's --trace plumbing), else install one.
        if get_collector() is None:
            install(Collector())
            self._owns_collector = True
        self._httpd = ThreadingHTTPServer(
            (self.config.host, self.config.port), _Handler
        )
        self._httpd.daemon_threads = True
        self._httpd.app = self
        self.pool.start()
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever, name="serve-http", daemon=True
        )
        self._http_thread.start()
        self._started_ts = time.time()
        _log.info("serving on http://%s:%d (workers=%d, queue=%d)",
                  *self.address, self.config.workers, self.config.queue_size)

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — port is concrete even for ``port=0``."""
        assert self._httpd is not None, "server not started"
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def drain(self, timeout: float | None = None) -> bool:
        """Stop accepting work, finish every accepted job, flush metrics.

        Returns ``True`` when the backlog fully drained within ``timeout``
        (default: the configured ``drain_timeout_s``).
        """
        timeout = self.config.drain_timeout_s if timeout is None else timeout
        self.draining = True
        self.queue.close()
        drained = self.queue.wait_idle(timeout=timeout)
        self.pool.join(timeout=5.0)
        collector = get_collector()
        if collector is not None:
            collector.flush_metrics()
        _log.info("drain %s (pending=%d, inflight=%d)",
                  "complete" if drained else "timed out",
                  self.queue.pending(), self.queue.inflight())
        return drained

    def stop(self) -> None:
        """Shut the listener down (call :meth:`drain` first for grace)."""
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._owns_collector:
            install(None)
            self._owns_collector = False

    # -- introspection -----------------------------------------------------

    def health(self) -> dict[str, object]:
        return {
            "status": "draining" if self.draining else "ok",
            "version": __version__,
            "queue_depth": self.queue.pending(),
            "jobs_inflight": self.queue.inflight(),
            "workers": self.config.workers,
            "uptime_s": (0.0 if self._started_ts is None
                         else time.time() - self._started_ts),
        }

    def metrics_text(self) -> str:
        collector = get_collector()
        if collector is None:
            return ""
        # Refresh the depth/inflight gauges at scrape time so they exist
        # (at zero) even before the first job and never go stale.
        collector.metrics.gauge("serve.queue_depth", self.queue.pending())
        collector.metrics.gauge("serve.jobs_inflight", self.queue.inflight())
        # Same for the cache tiers: cache.<tier>.{bytes,entries} track the
        # store's current occupancy, not the last mutation.
        if self.config.cache is not None:
            self.config.cache.refresh_gauges()
        return render_prometheus(collector.metrics)
