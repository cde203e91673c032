"""Distributed campaign execution: shard cells across a serve-worker fleet.

The local engine (:func:`repro.sweep.engine.run_campaign`) fans a campaign
out to worker *processes*; this module fans it out to worker *daemons* —
a fleet of ``repro-pmu serve`` instances — over the versioned
``POST /v1/evaluate`` API.  The coordinator:

* shards the campaign's :class:`~repro.sweep.spec.SweepPoint`\\ s across
  workers with a bounded in-flight window per worker (no worker is ever
  flooded past its own queue),
* attaches a per-cell deadline to every dispatch (the daemon's 504 path
  aborts the evaluation cooperatively),
* retries and requeues cells on worker failure — connection refused,
  timeouts, 5xx — with exponential backoff, honoring ``Retry-After``
  from 429/503 responses,
* tracks worker health and quarantines a worker after repeated
  consecutive faults (it is re-probed once the quarantine lapses),
* journals completed cells through the exact same append-only
  :class:`~repro.sweep.journal.CampaignJournal`, so ``--resume``
  semantics and byte-identical reports are preserved: a campaign run
  against a fleet produces the same ``campaign.json``/``report.md``/CSVs
  as a local run of the same spec.

Byte-identity rests on two existing guarantees: served evaluations are
byte-identical to local ones (PR 4's ``EvaluateRequest`` seam), and every
report is a pure function of the journal replayed in expansion order —
so the *completion* order across the fleet never shows downstream.

Artifact traffic rides the cache federation seam: workers run with a
:class:`~repro.core.cache.RemoteTier` at the bottom of their cache stack
(``--remote-cache``, ``CacheConfig(remote=...)``), read-through
against a hub daemon's ``/v1/cache`` routes.  The hub absorbs the whole
fleet's artifacts, so it is exactly the node that wants a bounded store:
give it ``--cache-max-bytes`` (disk LRU budget) and
``--cache-hot-entries`` (decoded hot tier) — eviction on the hub is
correctness-invisible to the fleet, a re-fetch of an evicted entry is
just a remote miss that falls back to recomputation (DESIGN.md §12).

Observability: ``dist.cells_dispatched`` / ``dist.cells_retried`` /
``dist.cells_requeued`` / ``dist.workers_quarantined`` counters, plus
per-worker ``dist.worker<i>_inflight`` gauges.  The per-worker tallies
and health snapshots come back as a :class:`FleetReport`, which
``run_campaign_dir`` merges into the campaign's provenance manifest —
one manifest describing work done across every node.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro._version import __version__
from repro.errors import RequestError, SweepError
from repro.obs import count, gauge, span
from repro.core.stats import AccuracyStats
from repro.sweep.engine import CampaignResult, ProgressFn, resume_state
from repro.sweep.journal import CampaignJournal
from repro.sweep.spec import CampaignSpec, SweepPoint

#: HTTP transport signature, injectable for tests:
#: ``(method, url, body, headers, timeout_s) -> (status, headers, body)``.
#: Transport-level failures (refused connection, reset, timeout) raise
#: ``OSError``/``urllib.error.URLError``.
HttpFn = Callable[
    [str, str, bytes | None, dict[str, str], float],
    tuple[int, dict[str, str], bytes],
]

#: Slack added to the HTTP socket timeout beyond the cell deadline, so the
#: daemon's own 504 wins the race against the client-side timeout.
HTTP_DEADLINE_MARGIN_S = 15.0


def _default_http(
    method: str,
    url: str,
    body: bytes | None,
    headers: dict[str, str],
    timeout_s: float,
) -> tuple[int, dict[str, str], bytes]:
    request = urllib.request.Request(url, data=body, headers=headers,
                                     method=method)
    try:
        with urllib.request.urlopen(request, timeout=timeout_s) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as exc:
        with exc:
            return exc.code, dict(exc.headers), exc.read()


@dataclass(frozen=True)
class FleetConfig:
    """Coordinator knobs (see ``repro-pmu sweep run --workers``)."""

    #: Cells in flight per worker.  Two keeps every worker's own queue
    #: busy without racing its backpressure limit.
    max_inflight: int = 2
    #: Per-cell deadline attached to each dispatch (the daemon aborts the
    #: evaluation cooperatively once it passes).
    cell_deadline_s: float = 300.0
    #: Attempts per cell before the campaign fails.  Each dispatch —
    #: including ones shed with 429 — consumes one attempt, so a dead
    #: fleet terminates instead of spinning.
    max_attempts: int = 6
    #: Exponential backoff between a cell's attempts (doubled per retry,
    #: capped); a server-sent ``Retry-After`` overrides when larger.
    backoff_base_s: float = 0.25
    backoff_cap_s: float = 5.0
    #: Consecutive faults before a worker is quarantined, and for how
    #: long.  A quarantined worker receives no dispatches until the
    #: window lapses, then gets probed with real work again.
    quarantine_after: int = 3
    quarantine_s: float = 15.0
    #: Socket timeout for health probes and cache transfers.
    connect_timeout_s: float = 10.0

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise SweepError("fleet max_inflight must be >= 1")
        if self.max_attempts < 1:
            raise SweepError("fleet max_attempts must be >= 1")
        if self.cell_deadline_s <= 0:
            raise SweepError("fleet cell_deadline_s must be positive")


@dataclass
class WorkerState:
    """Health and load tracking for one fleet worker."""

    url: str
    index: int
    inflight: int = 0
    consecutive_faults: int = 0
    faults: int = 0
    quarantines: int = 0
    cells_ok: int = 0
    quarantined_until: float = 0.0          # time.monotonic instant
    health: dict | None = None              # /healthz snapshot at probe time

    def available(self, now: float, max_inflight: int) -> bool:
        return self.inflight < max_inflight and now >= self.quarantined_until

    def quarantined(self, now: float) -> bool:
        return now < self.quarantined_until

    def record_ok(self) -> None:
        self.cells_ok += 1
        self.consecutive_faults = 0

    def record_fault(self, now: float, config: FleetConfig) -> None:
        self.faults += 1
        self.consecutive_faults += 1
        if self.consecutive_faults >= config.quarantine_after:
            self.quarantined_until = now + config.quarantine_s
            self.quarantines += 1
            # Fresh slate after the quarantine window: one post-quarantine
            # success should fully rehabilitate the worker.
            self.consecutive_faults = 0
            count("dist.workers_quarantined")

    def to_dict(self) -> dict[str, object]:
        return {
            "url": self.url,
            "cells_ok": self.cells_ok,
            "faults": self.faults,
            "quarantines": self.quarantines,
            "health": self.health,
        }


@dataclass
class FleetReport:
    """Per-node provenance of one distributed run.

    ``run_campaign_dir`` merges this into ``campaign.meta.json`` so the
    manifest names every node that contributed cells — the cross-node
    half of the provenance story.
    """

    workers: list[WorkerState] = field(default_factory=list)
    cells_dispatched: int = 0
    cells_retried: int = 0
    cells_requeued: int = 0

    def to_dict(self) -> dict[str, object]:
        return {
            "coordinator_version": __version__,
            "cells_dispatched": self.cells_dispatched,
            "cells_retried": self.cells_retried,
            "cells_requeued": self.cells_requeued,
            "workers": [worker.to_dict() for worker in self.workers],
        }


def request_for(spec: CampaignSpec, point: SweepPoint):
    """The versioned :class:`repro.api.EvaluateRequest` addressing one
    campaign point."""
    # Imported lazily: repro.api imports repro.sweep (the facade wraps
    # run_campaign_dir), so a module-level import here would be circular.
    from repro.api import EvaluateRequest

    return EvaluateRequest(
        machine=point.cell.machine,
        workload=point.cell.workload,
        method=point.cell.method,
        period=point.cell.period,
        scale=spec.scale,
        repeats=point.repeats,
        seed_base=spec.seed_base,
        fidelity=spec.fidelity,
        fidelity_top_n=spec.fidelity_top_n,
    )


@dataclass
class _Attempt:
    """One cell's position in the dispatch queue."""

    point: SweepPoint
    attempts: int = 0
    not_before: float = 0.0                 # time.monotonic instant
    last_worker: int | None = None
    last_error: str = ""


def probe_workers(
    urls: Sequence[str],
    *,
    http: HttpFn = _default_http,
    timeout_s: float = 10.0,
) -> list[WorkerState]:
    """Health-check every worker URL; refuse a version-skewed fleet.

    Unreachable workers are tolerated (they start with one recorded
    fault and earn quarantine organically), but at least one worker must
    answer, and every worker that answers must run this exact package
    version — mixed-version fleets could journal subtly different
    numbers, which a byte-identity system cannot allow.
    """
    cleaned = [url.rstrip("/") for url in urls if url.strip()]
    if not cleaned:
        raise SweepError("no worker URLs given")
    if len(set(cleaned)) != len(cleaned):
        raise SweepError(f"duplicate worker URLs: {cleaned}")
    workers: list[WorkerState] = []
    reachable = 0
    for index, url in enumerate(cleaned):
        worker = WorkerState(url=url, index=index)
        try:
            status, _, body = http("GET", url + "/healthz", None, {},
                                   timeout_s)
            if status != 200:
                raise OSError(f"healthz returned {status}")
            worker.health = json.loads(body)
        except (OSError, urllib.error.URLError, ValueError):
            worker.faults = 1
            worker.health = None
        else:
            reachable += 1
            version = worker.health.get("version")
            if version != __version__:
                raise SweepError(
                    f"worker {url} runs version {version!r}, coordinator "
                    f"runs {__version__!r}; a mixed-version fleet cannot "
                    f"guarantee byte-identical results"
                )
        workers.append(worker)
    if not reachable:
        raise SweepError(
            f"no reachable workers among {', '.join(cleaned)}"
        )
    return workers


class _Coordinator:
    """One distributed campaign run: dispatch, retry, journal."""

    def __init__(
        self,
        spec: CampaignSpec,
        workers: list[WorkerState],
        config: FleetConfig,
        http: HttpFn,
    ) -> None:
        self.spec = spec
        self.workers = workers
        self.config = config
        self.http = http
        self.report = FleetReport(workers=workers)
        #: Fidelity scores collected alongside ``fresh`` stats (fidelity
        #: campaigns only; the result document carries both).
        self.fresh_fidelity: dict[SweepPoint, object] = {}

    # -- dispatch ----------------------------------------------------------

    def _pick_worker(self, now: float,
                     attempt: _Attempt) -> WorkerState | None:
        """Least-loaded available worker, avoiding the one that just
        failed this cell when any alternative exists."""
        available = [w for w in self.workers
                     if w.available(now, self.config.max_inflight)]
        if not available:
            return None
        preferred = [w for w in available if w.index != attempt.last_worker]
        pool = preferred or available
        return min(pool, key=lambda w: (w.inflight, w.faults, w.index))

    def _evaluate_on(self, worker: WorkerState, attempt: _Attempt):
        """Runs on an executor thread: one blocking POST /v1/evaluate.

        Returns an outcome tuple; never raises (transport failures are
        data, not exceptions, so the coordinator loop stays single-
        threaded and simple).
        """
        from repro.api import EvaluateResult

        payload = request_for(self.spec, attempt.point).to_dict()
        payload["wait"] = True
        payload["deadline_s"] = self.config.cell_deadline_s
        body = json.dumps(payload).encode("utf-8")
        timeout_s = self.config.cell_deadline_s + HTTP_DEADLINE_MARGIN_S
        try:
            status, headers, data = self.http(
                "POST", worker.url + "/v1/evaluate", body,
                {"Content-Type": "application/json"}, timeout_s,
            )
        except (OSError, urllib.error.URLError) as exc:
            return ("fault", f"transport error: {exc}", 0.0)
        retry_after = _retry_after_s(headers)
        if status == 200:
            try:
                result = EvaluateResult.from_dict(json.loads(data))
            except (ValueError, RequestError, KeyError, TypeError) as exc:
                return ("fault", f"unparsable result body: {exc}", 0.0)
            return ("ok", result, 0.0)
        message = _error_message(status, data)
        if status == 429:
            # The worker is merely busy — not a health fault.  Should not
            # happen under the bounded in-flight window, but a shared
            # worker may carry foreign traffic.
            return ("busy", message, retry_after)
        if status in (400, 404, 422):
            # Our request document is wrong (or this is not a worker):
            # retrying cannot help, fail the campaign loudly.
            return ("fatal", message, 0.0)
        # 503 drain, 500 crash, 504 deadline, anything else: worker fault.
        return ("fault", message, retry_after)

    # -- bookkeeping -------------------------------------------------------

    def _gauge_inflight(self, worker: WorkerState) -> None:
        gauge(f"dist.worker{worker.index}_inflight", worker.inflight)

    def _requeue(self, attempt: _Attempt, worker: WorkerState,
                 delay_s: float, error: str, *, fault: bool,
                 pending: deque) -> None:
        now = time.monotonic()
        if fault:
            worker.record_fault(now, self.config)
            count("dist.cells_retried")
            self.report.cells_retried += 1
        attempt.last_worker = worker.index
        attempt.last_error = error
        backoff = min(self.config.backoff_cap_s,
                      self.config.backoff_base_s * 2 ** (attempt.attempts - 1))
        attempt.not_before = now + max(delay_s, backoff)
        if attempt.attempts >= self.config.max_attempts:
            raise SweepError(
                f"cell {attempt.point} failed after "
                f"{attempt.attempts} attempts across the fleet; "
                f"last error from {worker.url}: {error}"
            )
        count("dist.cells_requeued")
        self.report.cells_requeued += 1
        pending.append(attempt)

    # -- the run -----------------------------------------------------------

    def run(
        self,
        pending_points: list[SweepPoint],
        journal: CampaignJournal,
        on_complete: Callable[[SweepPoint, AccuracyStats | None], None],
    ) -> dict[SweepPoint, AccuracyStats | None]:
        fresh: dict[SweepPoint, AccuracyStats | None] = {}
        pending: deque[_Attempt] = deque(
            _Attempt(point) for point in pending_points
        )
        slots = max(1, len(self.workers) * self.config.max_inflight)
        with ThreadPoolExecutor(max_workers=slots,
                                thread_name_prefix="dist") as pool:
            futures: dict = {}
            try:
                while pending or futures:
                    now = time.monotonic()
                    self._dispatch_due(pending, futures, pool, now)
                    if not futures:
                        # Nothing in flight: every pending cell is backing
                        # off or every worker is quarantined.  Sleep to
                        # the earliest wake-up instant.
                        time.sleep(self._idle_delay(pending, now))
                        continue
                    done, _ = wait(futures, timeout=0.25,
                                   return_when=FIRST_COMPLETED)
                    for future in done:
                        attempt, worker = futures.pop(future)
                        worker.inflight -= 1
                        self._gauge_inflight(worker)
                        self._handle(future.result(), attempt, worker,
                                     pending, fresh, journal, on_complete)
            except BaseException:
                # Fail fast: outstanding requests finish server-side, but
                # nothing further is dispatched or journaled.
                for future in futures:
                    future.cancel()
                raise
        return fresh

    def _dispatch_due(self, pending: deque, futures: dict,
                      pool: ThreadPoolExecutor, now: float) -> None:
        # Scan for dispatchable attempts (due, with an available worker
        # that isn't the one that just failed them, when possible).
        for _ in range(len(pending)):
            attempt = pending.popleft()
            if attempt.not_before > now:
                pending.append(attempt)
                continue
            worker = self._pick_worker(now, attempt)
            if worker is None:
                pending.append(attempt)
                break
            attempt.attempts += 1
            worker.inflight += 1
            self._gauge_inflight(worker)
            count("dist.cells_dispatched")
            self.report.cells_dispatched += 1
            futures[pool.submit(self._evaluate_on, worker, attempt)] = \
                (attempt, worker)

    def _idle_delay(self, pending: deque, now: float) -> float:
        instants = [a.not_before for a in pending if a.not_before > now]
        instants += [w.quarantined_until for w in self.workers
                     if w.quarantined(now)]
        if not instants:
            return 0.05
        return min(1.0, max(0.05, min(instants) - now))

    def _handle(self, outcome, attempt: _Attempt, worker: WorkerState,
                pending: deque, fresh: dict, journal: CampaignJournal,
                on_complete) -> None:
        kind, value, delay_s = outcome
        if kind == "ok":
            worker.record_ok()
            stats = value.stats
            fresh[attempt.point] = stats
            if self.spec.fidelity:
                self.fresh_fidelity[attempt.point] = value.fidelity
            # Each cell arrives alone, so each is its own batch.
            journal.record(attempt.point, stats, value.fidelity)
            journal.sync()
            count("sweep.cells_done")
            if stats is None:
                count("sweep.cells_skipped")
            on_complete(attempt.point, stats)
            return
        if kind == "fatal":
            raise SweepError(
                f"worker {worker.url} rejected cell {attempt.point}: {value}"
            )
        self._requeue(attempt, worker, delay_s, str(value),
                      fault=(kind == "fault"), pending=pending)


def _retry_after_s(headers: dict[str, str]) -> float:
    for name, value in headers.items():
        if name.lower() == "retry-after":
            try:
                return max(0.0, float(value))
            except ValueError:
                return 0.0
    return 0.0


def _error_message(status: int, body: bytes) -> str:
    try:
        return f"HTTP {status}: {json.loads(body)['error']}"
    except Exception:
        return f"HTTP {status}"


def run_campaign_distributed(
    spec: CampaignSpec,
    journal_path: str | Path,
    workers: Sequence[str],
    *,
    fleet: FleetConfig | None = None,
    resume: bool = False,
    on_point: ProgressFn | None = None,
    http: HttpFn = _default_http,
) -> tuple[CampaignResult, FleetReport]:
    """Execute (or finish) one campaign across a fleet of serve workers.

    The distributed twin of :func:`repro.sweep.engine.run_campaign`: the
    same journal file, the same resume semantics, the same
    :class:`CampaignResult` — only the execution substrate differs.
    Returns the result plus the :class:`FleetReport` of who did what.
    """
    config = fleet or FleetConfig()
    journal_path = Path(journal_path)
    if journal_path.exists() and not resume:
        raise SweepError(
            f"campaign journal {journal_path} already exists; "
            f"pass resume=True (--resume) to continue it"
        )

    states = probe_workers(workers, http=http,
                           timeout_s=config.connect_timeout_s)

    points = spec.expand()
    total = len(points)
    result = CampaignResult(spec=spec)

    completed: dict[str, tuple[float, ...] | None] = {}
    state = None
    if resume and journal_path.exists():
        state = resume_state(spec, journal_path)
        completed = state.completed

    pending: list[SweepPoint] = []
    done = 0
    for point in points:
        if point.point_id in completed:
            stats = (
                None if completed[point.point_id] is None
                else AccuracyStats(method=point.cell.method,
                                   errors=completed[point.point_id])
            )
            result.cells[point] = stats
            if spec.fidelity and state is not None:
                result.fidelity[point] = state.fidelity_for(point)
            done += 1
            count("sweep.cells_resumed")
            if stats is None:
                count("sweep.cells_skipped")
        else:
            pending.append(point)

    coordinator = _Coordinator(spec, states, config, http)
    progress = {"done": done}

    with span("campaign", campaign=spec.name, points=total, resumed=done,
              workers=len(states), distributed=True):
        with CampaignJournal(journal_path) as journal:
            journal.open(spec, resume=resume)

            def on_complete(point: SweepPoint,
                            stats: AccuracyStats | None) -> None:
                progress["done"] += 1
                if on_point is not None:
                    on_point(point, stats, progress["done"], total)

            fresh = coordinator.run(pending, journal, on_complete)
            for point in pending:
                result.cells[point] = fresh[point]
                if spec.fidelity:
                    result.fidelity[point] = (
                        coordinator.fresh_fidelity.get(point)
                    )

    # Expansion order, exactly like the local engine: resumed, fleet-run,
    # and local runs of one spec are indistinguishable downstream.
    result.cells = {point: result.cells[point] for point in points}
    if spec.fidelity:
        result.fidelity = {
            point: result.fidelity.get(point) for point in points
        }
    return result, coordinator.report
