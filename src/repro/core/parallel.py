"""Parallel cell evaluation over a process pool.

Table 1/2 cells are fully independent (machine, workload, method, period)
experiments, so they parallelize embarrassingly.  The unit of dispatch is a
*workload group* — every :class:`~repro.core.experiment.CellSpec` of one
workload — so each worker materializes (or pulls from the persistent cache)
that workload's trace exactly once, mirroring the serial harness's sharing.

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

import contextlib
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Callable, Iterable, Sequence

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


def group_by_workload(
    specs: Iterable[CellSpec],
) -> list[tuple[str, tuple[CellSpec, ...]]]:
    """Group specs per workload, preserving first-appearance order."""
    groups: dict[str, list[CellSpec]] = {}
    for spec in specs:
        groups.setdefault(spec.workload, []).append(spec)
    return [(workload, tuple(group)) for workload, group in groups.items()]


def _evaluate_group(
    config: ExperimentConfig,
    cache_config: "CacheConfig | str | None",
    specs: tuple[CellSpec, ...],
    observed: bool,
    fidelity_top_n: int | None = None,
) -> tuple[list[CellResult], dict[str, float], list]:
    """Worker entry point: evaluate one workload's cells.

    Top-level (picklable) by construction.  ``cache_config`` is the
    parent cache's :class:`~repro.core.cache.CacheConfig` (a bare root
    string is still accepted for compatibility), so workers rebuild the
    same tier stack — budgets, hot tier, remote and all.  The group's
    trace/reference entries stay pinned for the whole dispatch: under a
    byte budget, the shared artifacts every cell re-reads must not be
    LRU-evicted mid-group.

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
        results: list[CellResult] = []
        workload = specs[0].workload if specs else None
        with (harness.pinned_workload(workload) if workload is not None
                else contextlib.nullcontext()):
            for spec in specs:
                started = time.perf_counter()
                scores = harness.evaluate_cell(
                    spec, fidelity_top_n=fidelity_top_n)
                results.append((spec, scores, time.perf_counter() - started))
        if collector is None:
            return results, {}, []
        return results, collector.metrics.counters(), collector.spans
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
) -> dict[CellSpec, CellScores]:
    """Evaluate many cells, serially or across ``jobs`` worker processes.

    ``jobs <= 1`` runs in-process on ``harness`` (creating one if needed),
    preserving today's serial path exactly.  With ``jobs > 1`` the cells
    are dispatched one workload group per task; ``parallel.cells_dispatched``
    counts the dispatched cells, and each worker's counters are merged back
    into the installed collector.

    ``abort`` is polled between seeded repeats inside each cell on the
    serial path, and between group completions on the parallel path (a
    group already running finishes); a truthy return raises
    :class:`EvaluationAborted`, after cancelling any not-yet-started
    groups.

    Each cell maps to its :class:`~repro.core.experiment.CellScores`;
    ``fidelity_top_n`` additionally scores consumer fidelity at that
    top-N (DESIGN.md §11) from the same sampling pass.
    """
    total = len(specs)
    results: dict[CellSpec, CellScores] = {}
    done = 0

    if jobs <= 1:
        harness = harness or Harness(config, cache=cache)
        for spec in specs:
            started = time.perf_counter()
            scores = harness.evaluate_cell(spec, abort=abort,
                                           fidelity_top_n=fidelity_top_n)
            results[spec] = scores
            done += 1
            if on_result is not None:
                on_result(spec, scores, time.perf_counter() - started,
                          done, total)
        return results

    groups = group_by_workload(specs)
    cache_config = cache.describe() if cache is not None else None
    observed = enabled()
    count("parallel.cells_dispatched", total)
    with span("parallel", jobs=jobs, groups=len(groups), cells=total):
        workers = min(jobs, max(len(groups), 1))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_evaluate_group, config, cache_config, group,
                            observed, fidelity_top_n)
                for _, group in groups
            ]
            for future in as_completed(futures):
                if abort is not None and abort():
                    for pending in futures:
                        pending.cancel()
                    raise EvaluationAborted(
                        f"parallel evaluation aborted after {done} of "
                        f"{total} cells"
                    )
                cell_results, counters, spans = future.result()
                for name, value in counters.items():
                    count(name, value)
                collector = get_collector()
                if collector is not None:
                    collector.merge_spans(spans)
                for spec, scores, seconds in cell_results:
                    results[spec] = scores
                    done += 1
                    if on_result is not None:
                        on_result(spec, scores, seconds, done, total)
    return results
