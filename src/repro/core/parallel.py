"""Parallel cell evaluation over a process pool.

Table 1/2 cells are fully independent (machine, workload, method, period)
experiments, so they parallelize embarrassingly.  Cells that need no
evaluation (blank cells, and cells whose scores the cache already holds)
are answered in the calling process before anything is dispatched, so a
rerun pays only for what the cache cannot answer and a fully cached one
starts no pool.  The unit of dispatch is a *slice*: every
:class:`~repro.core.experiment.CellSpec` of one (workload, machine) pair,
in spec order.  A workload's first slice builds its trace
(or loads it from the persistent cache) and returns the block sequence;
the parent then submits the workload's other machine slices with that
sequence, which their harnesses adopt
(:meth:`~repro.core.experiment.Harness.adopt_trace`), so every program is
interpreted once per evaluation, with or without a cache.  Slices run
first-in first-out: each workload's first slice in spec order, then the
follow-ups as their first slices complete.  A slice holds one machine's
execution, and a workload's machines can run on different workers.

``abort`` is polled each time a slice completes; a truthy return cancels
the slices that have not started, submits no further follow-ups, and
raises :class:`~repro.errors.EvaluationAborted`.  Slices already running
finish first.

Determinism: a cell's value is a pure function of its spec and the
:class:`ExperimentConfig` (explicit seeds everywhere, DESIGN.md §7), so the
merged result is bit-identical to a serial build regardless of worker count
or completion order.

When the parent run is observed (a collector is installed), workers run
with a fresh :class:`~repro.obs.Collector` of their own and ship both
their counter snapshots and their span records back with the results; the
parent merges them (:meth:`Collector.merge_spans`), so
``samples.collected``, ``cache.hits`` and the per-cell span trees stay
complete in manifests and JSONL traces even for multi-process builds.
Worker cell spans appear as extra roots (their ``table`` ancestor lives in
the parent process).  Unobserved runs skip worker collection entirely,
preserving the no-op fast path.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.errors import EvaluationAborted
from repro.obs import Collector, count, enabled, get_collector, install, span
from repro.core.cache import ArtifactCache, CacheConfig, resolve_cache
from repro.core.experiment import (
    CellScores,
    CellSpec,
    ExperimentConfig,
    Harness,
)

#: One cell's scores plus the worker-side wall seconds it took.
CellResult = tuple[CellSpec, CellScores, float]

#: Progress callback: (spec, scores, seconds, done, total).
ProgressFn = Callable[[CellSpec, CellScores, float, int, int], None]


def plan_cells(
    config: ExperimentConfig,
    workloads: Sequence[str],
    methods: Sequence[str],
    harness: Harness | None = None,
) -> list[CellSpec]:
    """The deterministic cell list of one table build.

    Order matches the serial loop (workload → machine → method) and every
    spec carries its resolved period, so plans are stable cache keys.
    """
    harness = harness or Harness(config)
    return [
        CellSpec(machine, workload, method, harness.period_for(workload))
        for workload in workloads
        for machine in config.machines
        for method in methods
    ]


def plan_slices(
    specs: Iterable[CellSpec],
) -> list[list[tuple[CellSpec, ...]]]:
    """Split specs into (workload, machine) slices, grouped per workload.

    One list per workload, holding its machine slices; workloads, machines
    and the specs inside a slice all keep their first-appearance order.
    """
    workloads: dict[str, dict[str, list[CellSpec]]] = {}
    for spec in specs:
        machines = workloads.setdefault(spec.workload, {})
        machines.setdefault(spec.machine, []).append(spec)
    return [[tuple(piece) for piece in machines.values()]
            for machines in workloads.values()]


def _evaluate_group(
    config: ExperimentConfig,
    cache_config: "CacheConfig | str | None",
    specs: tuple[CellSpec, ...],
    observed: bool,
    fidelity_top_n: int | None = None,
    block_seq: np.ndarray | None = None,
) -> tuple[list[CellResult], dict[str, float], list, np.ndarray | None]:
    """Worker entry point: evaluate one (workload, machine) slice.

    Top-level (picklable) by construction.  ``cache_config`` is the
    parent cache's :class:`~repro.core.cache.CacheConfig` (a bare root
    string is still accepted for compatibility), so workers rebuild the
    same tier stack — budgets, hot tier, remote and all.  The workload's
    trace/reference entries stay pinned for the whole slice: under a
    byte budget, the shared artifacts every cell re-reads must not be
    LRU-evicted mid-slice.

    ``block_seq`` is the workload's trace as handed over by the parent;
    without one, the slice builds or loads the trace itself and returns
    its block sequence last, for the workload's other slices (``None``
    when no cell needed the trace).

    When the parent run is observed, installs a private collector (so
    worker counters never race the parent's) and returns its counter
    snapshot and span records for merging; otherwise collection stays
    disabled in the worker too.
    """
    collector = Collector() if observed else None
    previous = install(collector) if observed else None
    try:
        cache = resolve_cache(cache_config)
        harness = Harness(config, cache=cache)
        workload = specs[0].workload
        if block_seq is not None:
            harness.adopt_trace(workload, block_seq)
        results: list[CellResult] = []
        with harness.pinned_workload(workload):
            for spec in specs:
                started = time.perf_counter()
                scores = harness.evaluate_cell(
                    spec, fidelity_top_n=fidelity_top_n)
                results.append((spec, scores, time.perf_counter() - started))
        built = harness.held_trace(workload) if block_seq is None else None
        hand_off = None if built is None else built.block_seq
        if collector is None:
            return results, {}, [], hand_off
        return results, collector.metrics.counters(), collector.spans, \
            hand_off
    finally:
        if observed:
            install(previous)


def evaluate_cells(
    config: ExperimentConfig,
    specs: Sequence[CellSpec],
    jobs: int = 1,
    cache: ArtifactCache | None = None,
    harness: Harness | None = None,
    on_result: ProgressFn | None = None,
    abort: Callable[[], bool] | None = None,
    fidelity_top_n: int | None = None,
    on_batch: Callable[[], None] | None = None,
) -> dict[CellSpec, CellScores]:
    """Evaluate many cells, serially or across ``jobs`` worker processes.

    First the calling process answers, on ``harness`` (created if
    needed), every cell that needs no evaluation
    (:meth:`~repro.core.experiment.Harness.lookup_cell`: blank cells and
    cells whose scores the cache holds), and reports them as one batch.
    Only the rest are evaluated, so a fully cached call starts no pool.
    ``jobs <= 1`` evaluates them in-process on ``harness``.  With
    ``jobs > 1`` they are dispatched one (workload, machine) slice per
    task (:func:`plan_slices`): each workload's first slice at once, its
    other machine slices with the block sequence the first one returns,
    so no worker re-interprets a program.  ``parallel.cells_dispatched``
    counts the dispatched cells, and each worker's counters are merged
    back into the installed collector.

    ``on_result`` is called once per cell, and ``on_batch`` after each
    batch of results that arrived together: the cells answered up
    front, each serially evaluated cell, each finished slice.

    ``abort`` is polled between seeded repeats inside each cell on the
    serial path, and each time a slice completes on the parallel path (a
    slice already running finishes); a truthy return raises
    :class:`EvaluationAborted`, after cancelling the slices not yet
    started and without submitting any further follow-up slice.

    Each cell maps to its :class:`~repro.core.experiment.CellScores`;
    ``fidelity_top_n`` additionally scores consumer fidelity at that
    top-N (DESIGN.md §11) from the same sampling pass.
    """
    total = len(specs)
    results: dict[CellSpec, CellScores] = {}
    done = 0
    harness = harness or Harness(config, cache=cache)

    def deliver(batch: list[CellResult]) -> None:
        nonlocal done
        for spec, scores, seconds in batch:
            results[spec] = scores
            done += 1
            if on_result is not None:
                on_result(spec, scores, seconds, done, total)
        if batch and on_batch is not None:
            on_batch()

    answered: list[CellResult] = []
    missing: list[CellSpec] = []
    for spec in specs:
        started = time.perf_counter()
        scores = harness.lookup_cell(spec, fidelity_top_n)
        if scores is None:
            missing.append(spec)
        else:
            answered.append((spec, scores, time.perf_counter() - started))
    deliver(answered)

    if jobs <= 1:
        for spec in missing:
            started = time.perf_counter()
            scores = harness.evaluate_cell(spec, abort=abort,
                                           fidelity_top_n=fidelity_top_n)
            deliver([(spec, scores, time.perf_counter() - started)])
        return results
    if not missing:
        return results

    plan = plan_slices(missing)
    slices = sum(len(pieces) for pieces in plan)
    cache_config = cache.describe() if cache is not None else None
    observed = enabled()
    count("parallel.cells_dispatched", len(missing))
    with span("parallel", jobs=jobs, slices=slices, cells=len(missing)):
        workers = min(jobs, max(slices, 1))
        with ProcessPoolExecutor(max_workers=workers) as pool:

            def submit(piece, block_seq=None):
                # The worker entry is looked up at every submit, so a
                # wrapper installed on the module reaches follow-ups too.
                return pool.submit(_evaluate_group, config, cache_config,
                                   piece, observed, fidelity_top_n,
                                   block_seq)

            follow_ups = {submit(first): rest for first, *rest in plan}
            running = set(follow_ups)
            while running:
                finished, running = wait(running,
                                         return_when=FIRST_COMPLETED)
                for future in finished:
                    if abort is not None and abort():
                        for pending in running:
                            pending.cancel()
                        raise EvaluationAborted(
                            f"parallel evaluation aborted after {done} of "
                            f"{total} cells"
                        )
                    cell_results, counters, spans, block_seq = \
                        future.result()
                    for piece in follow_ups.pop(future, ()):
                        running.add(submit(piece, block_seq))
                    for name, value in counters.items():
                        count(name, value)
                    collector = get_collector()
                    if collector is not None:
                        collector.merge_spans(spans)
                    deliver(cell_results)
    return results
