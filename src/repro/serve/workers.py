"""Worker pool: threads that pull jobs off the queue and evaluate them.

Each job builds a :class:`~repro.core.experiment.Harness` bound to the
request's own config but sharing the server's one persistent
:class:`~repro.core.cache.ArtifactCache`, so repeated requests for the
same cell are answered from cache with zero re-simulation (the
``cache.hits`` / ``harness.cells_evaluated`` counters on ``/metrics``
make that visible).  When the daemon runs with a memory hot tier
(``--cache-hot-entries``, DESIGN.md §12), the working set's traces and
stats are decoded from their npz/JSON bytes once and the decoded objects
are shared read-only across all worker threads; a disk byte budget
(``--cache-max-bytes``) bounds the daemon's footprint, with in-flight
cells pinned so LRU eviction never races an evaluation.  Table jobs go
through the same
:func:`repro.core.tables.build_table1`/``2`` path as the CLI — including
:mod:`repro.core.parallel` when the server is configured with
``table_jobs > 1`` — so served tables match CLI tables byte for byte.

Every job runs inside a ``request`` tracing span carrying its job id, so
per-request cell/sample/attribute spans nest under it in traces.  The
job's :meth:`~repro.serve.jobs.Job.expired` check is threaded down as the
cooperative ``abort`` hook: a job whose deadline passes mid-evaluation
raises :class:`~repro.errors.EvaluationAborted` at the next repeat
boundary and is marked ``expired`` without writing partial results.
"""

from __future__ import annotations

import json
import threading

from repro import api
from repro.errors import EvaluationAborted, ReproError
from repro.obs import span
from repro.obs.log import get_logger
from repro.core.cache import ArtifactCache
from repro.core.experiment import Harness
from repro.core.tables import build_table1, build_table2
from repro.serve.jobs import Job, JobQueue, JobState
from repro.serve.protocol import TableRequest

_log = get_logger("serve")


def run_table_request(
    request: TableRequest,
    cache: ArtifactCache | None = None,
    jobs: int = 1,
    abort=None,
) -> dict[str, object]:
    """Execute one :class:`TableRequest`; returns the response document."""
    harness = Harness(request.config(), cache=cache)
    build = build_table1 if request.table == 1 else build_table2
    kwargs: dict[str, object] = {}
    if request.methods is not None:
        kwargs["methods"] = request.methods
    if request.workloads is not None:
        kwargs["workloads"] = request.workloads
    table = build(harness, jobs=jobs, abort=abort, **kwargs)
    return {
        "schema_version": api.API_SCHEMA_VERSION,
        "request": request.to_dict(),
        "table": api.table_document(table),
    }


def _canonical_json(document: dict) -> bytes:
    return (json.dumps(document, sort_keys=True, separators=(",", ":"))
            + "\n").encode("utf-8")


class WorkerPool:
    """``workers`` daemon threads executing jobs until the queue drains."""

    def __init__(
        self,
        queue: JobQueue,
        cache: ArtifactCache | None = None,
        workers: int = 2,
        table_jobs: int = 1,
    ) -> None:
        self.queue = queue
        self.cache = cache
        self.table_jobs = table_jobs
        self._threads = [
            threading.Thread(target=self._run, name=f"serve-worker-{i}",
                             daemon=True)
            for i in range(workers)
        ]

    def start(self) -> None:
        for thread in self._threads:
            thread.start()

    def join(self, timeout: float | None = None) -> bool:
        """Wait for every worker to exit (requires a closed, empty queue)."""
        for thread in self._threads:
            thread.join(timeout=timeout)
        return not any(thread.is_alive() for thread in self._threads)

    # -- execution ---------------------------------------------------------

    def _run(self) -> None:
        while True:
            job = self.queue.pop(timeout=0.1)
            if job is None:
                if self.queue.closed and not self.queue.pending():
                    return
                continue
            self._execute(job)

    def _execute(self, job: Job) -> None:
        with span("request", request_id=job.id, kind=job.kind) as request_span:
            if job.expired():
                request_span.set(outcome="expired")
                self.queue.finish(job, JobState.EXPIRED,
                                  error="deadline exceeded before start")
                return
            try:
                if job.kind == "evaluate":
                    result = api.evaluate_request(
                        job.payload,
                        harness=Harness(job.payload.config(),
                                        cache=self.cache),
                        abort=job.expired,
                    )
                    body = result.to_json().encode("utf-8")
                else:
                    result = run_table_request(
                        job.payload, cache=self.cache,
                        jobs=self.table_jobs, abort=job.expired,
                    )
                    body = _canonical_json(result)
            except EvaluationAborted as exc:
                request_span.set(outcome="expired")
                self.queue.finish(job, JobState.EXPIRED, error=str(exc))
            except ReproError as exc:
                request_span.set(outcome="failed")
                self.queue.finish(job, JobState.FAILED, error=str(exc))
            except Exception as exc:   # noqa: BLE001 - keep the worker alive
                _log.exception("job %s crashed", job.id)
                request_span.set(outcome="crashed")
                self.queue.finish(job, JobState.FAILED,
                                  error=f"internal error: {exc!r}")
            else:
                request_span.set(outcome="done")
                self.queue.finish(job, JobState.DONE, result=result,
                                  body=body)
