"""`repro-pmu hammer`: an honest load generator for the serve daemon.

Drives a *running* :mod:`repro.serve` daemon at a target QPS over
``POST /v1/evaluate`` with bounded concurrency, and reports what actually
happened rather than what the operator hoped:

* Every response class is a **first-class outcome** — 200s, 429 shedding,
  503 draining, 504 deadline expiries, 5xx failures, transport errors and
  client timeouts are tallied separately.  Sustained QPS counts *only*
  successful evaluations, so a crashed or shedding daemon can never
  appear as throughput.
* The daemon must be **healthy before and after** the run
  (``GET /healthz``); an unreachable daemon makes the whole result
  ``failed``, not a number.
* Client-side tallies are **cross-checked** against the daemon's own
  ``/metrics`` deltas (the ``serve.request_latency_s`` histogram is
  observed exactly once per POST), so neither side can misreport the load.
* Client latency percentiles (p50/p95/p99, nearest-rank over per-request
  ``time.perf_counter`` windows) ship next to the daemon's histogram-bucket
  quantiles for the same window, keeping both clocks honest.

The result is the same guarded :class:`~repro.bench.result.BenchResult`
document ``bench import`` writes for perfbench runs (``kind="hammer"``),
so ``bench compare`` gates serve-path regressions exactly like pipeline
regressions.
"""

from __future__ import annotations

import json
import math
import socket
import threading
import time
import urllib.error
import urllib.request
from typing import Any

from repro.api import EvaluateRequest
from repro.bench.guards import (
    DEFAULT_MIN_ELAPSED_S,
    check_alive,
    check_counts_match,
    check_min_elapsed,
    check_nonzero_work,
)
from repro.bench.result import BenchResult, Metric
from repro.errors import BenchError
from repro.obs import build_manifest
from repro.obs.log import get_logger

_log = get_logger("hammer")

#: Outcome classes, in reporting order.
OUTCOMES = ("ok", "rejected_429", "draining_503", "deadline_504",
            "http_error", "client_timeout", "transport_error")

#: The daemon-side histogram every POST observes exactly once (see
#: ``repro.serve.server._Handler.do_POST``) — the cross-check anchor.
LATENCY_METRIC = "repro_serve_request_latency_s"


# -- tiny HTTP client (stdlib only, one connection per request) ------------


def _http_get(url: str, timeout_s: float) -> tuple[int, str]:
    request = urllib.request.Request(url, method="GET")
    with urllib.request.urlopen(request, timeout=timeout_s) as response:
        return response.status, response.read().decode("utf-8")


def _http_post_json(url: str, document: dict[str, Any],
                    timeout_s: float) -> tuple[int, str]:
    body = json.dumps(document).encode("utf-8")
    request = urllib.request.Request(
        url, data=body, method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout_s) as response:
        return response.status, response.read().decode("utf-8")


def _healthy(base_url: str, timeout_s: float = 5.0) -> bool:
    try:
        status, body = _http_get(base_url + "/healthz", timeout_s)
        return status == 200 and json.loads(body).get("status") in (
            "ok", "draining")
    except (OSError, ValueError):
        return False


# -- /metrics parsing ------------------------------------------------------


def parse_prometheus(text: str) -> dict[str, float]:
    """Prometheus text format → ``{sample_name_with_labels: value}``.

    Good enough for the daemon's own exposition (no escaping inside label
    values); comment and blank lines are skipped.
    """
    samples: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        try:
            samples[name] = float(value)
        except ValueError:
            continue
    return samples


def _histogram_quantile(before: dict[str, float], after: dict[str, float],
                        metric: str, q: float) -> float | None:
    """Nearest-rank quantile of a histogram's before→after delta.

    Returns the upper bucket bound holding the rank (``inf`` when it falls
    in ``+Inf``), or ``None`` when the window saw no observations.
    """
    prefix = f'{metric}_bucket{{le="'
    deltas: list[tuple[float, float]] = []
    for name, value in after.items():
        if not name.startswith(prefix):
            continue
        label = name[len(prefix):-2]          # strip ...le=" and "}
        bound = math.inf if label == "+Inf" else float(label)
        deltas.append((bound, value - before.get(name, 0.0)))
    deltas.sort()
    count = deltas[-1][1] if deltas else 0.0
    if count <= 0:
        return None
    rank = max(1, math.ceil(q * count))
    for bound, cumulative in deltas:
        if cumulative >= rank:
            return bound
    return math.inf


def _nearest_rank(sorted_values: list[float], q: float) -> float | None:
    if not sorted_values:
        return None
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


# -- the load loop ---------------------------------------------------------


class _Tally:
    """Thread-safe outcome/latency accumulator."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.outcomes = {name: 0 for name in OUTCOMES}
        self.latencies_s: list[float] = []
        self.errors: list[str] = []

    def record(self, outcome: str, latency_s: float | None,
               detail: str | None = None) -> None:
        with self.lock:
            self.outcomes[outcome] += 1
            if outcome == "ok" and latency_s is not None:
                self.latencies_s.append(latency_s)
            if detail is not None and len(self.errors) < 20:
                self.errors.append(detail)


def _classify_and_record(tally: _Tally, send, timeout_s: float) -> None:
    started = time.perf_counter()
    try:
        status, _ = send()
    except urllib.error.HTTPError as exc:
        exc.read()
        if exc.code == 429:
            tally.record("rejected_429", None)
        elif exc.code == 503:
            tally.record("draining_503", None)
        elif exc.code == 504:
            tally.record("deadline_504", None)
        else:
            tally.record("http_error", None, f"HTTP {exc.code}")
        return
    except (socket.timeout, TimeoutError):
        tally.record("client_timeout", None,
                     f"client timeout after {timeout_s:g}s")
        return
    except (urllib.error.URLError, OSError) as exc:
        reason = getattr(exc, "reason", exc)
        if isinstance(reason, (socket.timeout, TimeoutError)):
            tally.record("client_timeout", None,
                         f"client timeout after {timeout_s:g}s")
        else:
            tally.record("transport_error", None, f"{type(exc).__name__}: "
                                                  f"{reason}")
        return
    latency = time.perf_counter() - started
    if status == 200:
        tally.record("ok", latency)
    else:
        tally.record("http_error", None, f"HTTP {status}")


def run_hammer(
    url: str,
    *,
    qps: float = 8.0,
    duration_s: float = 5.0,
    concurrency: int = 4,
    machine: str = "ivybridge",
    workload: str = "latency_biased",
    method: str = "precise",
    scale: float = 0.01,
    repeats: int = 1,
    seed_base: int = 100,
    deadline_s: float = 30.0,
    timeout_s: float | None = None,
    min_elapsed_s: float = DEFAULT_MIN_ELAPSED_S,
    area: str = "serve",
) -> BenchResult:
    """Hammer a running daemon; returns a guarded ``kind="hammer"`` result.

    ``url`` is the daemon base URL (e.g. ``http://127.0.0.1:8787``).  The
    same cell request (validated up front through
    :class:`repro.api.EvaluateRequest`) is sent ``round(qps * duration_s)``
    times on a fixed schedule by ``concurrency`` worker threads;
    ``timeout_s`` defaults to ``deadline_s + 10`` so daemon-side 504s are
    seen as such instead of racing the client's socket timeout.
    """
    if qps <= 0 or duration_s <= 0:
        raise BenchError("qps and duration_s must be positive")
    if concurrency < 1:
        raise BenchError("concurrency must be >= 1")
    timeout_s = deadline_s + 10.0 if timeout_s is None else timeout_s
    base_url = url.rstrip("/")
    request = EvaluateRequest(
        machine=machine, workload=workload, method=method,
        scale=scale, repeats=repeats, seed_base=seed_base,
    ).validate().resolved()
    body = dict(request.to_dict())
    body["wait"] = True
    body["deadline_s"] = deadline_s

    config: dict[str, Any] = {
        "url": base_url, "qps": qps, "duration_s": duration_s,
        "concurrency": concurrency, "deadline_s": deadline_s,
        "timeout_s": timeout_s, "min_elapsed_s": min_elapsed_s,
        "request": request.to_dict(),
    }

    def result_for(metrics: tuple[Metric, ...], details: dict[str, Any],
                   error: str | None = None) -> BenchResult:
        return BenchResult(
            area=area, kind="hammer", config=config, metrics=metrics,
            details=details, error=error,
            provenance=build_manifest(config=config,
                                      extra={"bench_kind": "hammer"}),
        )

    if not _healthy(base_url):
        return result_for((), {}, error=f"daemon unreachable at {base_url} "
                                        "before load (GET /healthz failed)")
    try:
        _, metrics_before_text = _http_get(base_url + "/metrics", 5.0)
    except OSError as exc:
        return result_for((), {}, error=f"GET /metrics failed before load: "
                                        f"{exc}")
    metrics_before = parse_prometheus(metrics_before_text)

    total = max(1, round(qps * duration_s))
    tally = _Tally()
    next_index = [0]
    index_lock = threading.Lock()
    start = time.perf_counter()

    def worker() -> None:
        endpoint = base_url + "/v1/evaluate"
        while True:
            with index_lock:
                i = next_index[0]
                if i >= total:
                    return
                next_index[0] = i + 1
            delay = start + i / qps - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            _classify_and_record(
                tally, lambda: _http_post_json(endpoint, body, timeout_s),
                timeout_s,
            )

    threads = [threading.Thread(target=worker, name=f"hammer-{n}",
                                daemon=True)
               for n in range(concurrency)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    _log.info("hammer: %d requests in %.2fs (%s)", total, elapsed,
              ", ".join(f"{k}={v}" for k, v in tally.outcomes.items() if v))

    alive_after = _healthy(base_url)
    metrics_after: dict[str, float] = {}
    if alive_after:
        try:
            _, metrics_after_text = _http_get(base_url + "/metrics", 5.0)
            metrics_after = parse_prometheus(metrics_after_text)
        except OSError:
            alive_after = False

    outcomes = dict(tally.outcomes)
    ok = outcomes["ok"]
    # Requests that produced an HTTP response (any status) must reconcile
    # with the daemon's per-POST latency-histogram count; transport errors
    # never reached a handler and client timeouts may still be in one.
    client_handled = total - outcomes["transport_error"] \
        - outcomes["client_timeout"]
    daemon_handled = int(metrics_after.get(f"{LATENCY_METRIC}_count", 0)
                         - metrics_before.get(f"{LATENCY_METRIC}_count", 0))

    latencies = sorted(tally.latencies_s)
    shared_guards = (
        check_alive(True, "before load"),
        check_alive(alive_after, "after load"),
        check_min_elapsed(elapsed, min_elapsed_s),
        check_nonzero_work(ok, "successful evaluations (HTTP 200)"),
    )
    qps_guards = shared_guards + (
        check_counts_match(client_handled, daemon_handled,
                           "handled POST requests",
                           tolerance=outcomes["client_timeout"]),
    )
    latency_guards = shared_guards

    def latency_metric(name: str, q: float) -> Metric:
        return Metric(name=name, value=_nearest_rank(latencies, q),
                      unit="s", direction="lower", samples=(),
                      guards=latency_guards)

    metrics = (
        Metric(name="sustained_qps",
               value=(ok / elapsed) if elapsed > 0 and ok else None,
               unit="req/s", direction="higher", guards=qps_guards),
        latency_metric("latency_p50_s", 0.50),
        latency_metric("latency_p95_s", 0.95),
        latency_metric("latency_p99_s", 0.99),
        Metric(name="error_rate",
               value=(total - ok) / total,
               unit="ratio", direction="lower", guards=shared_guards),
    )
    details: dict[str, Any] = {
        "offered_qps": qps,
        "requests_sent": total,
        "elapsed_s": elapsed,
        "outcomes": outcomes,
        "client_handled": client_handled,
        "daemon_handled": daemon_handled,
        "daemon_latency_quantiles_s": {
            "p50": _histogram_quantile(metrics_before, metrics_after,
                                       LATENCY_METRIC, 0.50),
            "p95": _histogram_quantile(metrics_before, metrics_after,
                                       LATENCY_METRIC, 0.95),
            "p99": _histogram_quantile(metrics_before, metrics_after,
                                       LATENCY_METRIC, 0.99),
        },
        "errors": list(tally.errors),
    }
    error = None
    if not alive_after:
        error = ("daemon unreachable after load — treating the whole run "
                 "as failed, not as throughput")
    return result_for(metrics, details, error=error)
