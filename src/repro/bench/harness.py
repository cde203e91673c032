"""`repro-pmu bench run`: measure the pipeline's own speed, defensibly.

The harness times the same code paths users pay for — Table 1 / Table 2
cell evaluation and sweep campaigns, always through the public
:mod:`repro.api` facade — and reports cells/sec plus simulated
instructions/sec.  Discipline, modelled on nanoBench's minimum-work /
minimum-elapsed rules (PAPERS.md):

* **Warmup separation** — ``warmup`` un-timed passes run first (JIT-free
  Python still benefits: imports, numpy buffers, OS page cache) and double
  as the artifact-cache fill for the warm phase.  Warmup never contributes
  to a reported number.
* **Cold vs warm reported separately** — the cold phase rebuilds every
  trace and re-simulates every cell (fresh in-process harness, no
  persistent cache); the warm phase answers the same requests from the
  persistent artifact cache.  Conflating the two is how "cache
  throughput" numbers silently replace simulation throughput.
* **Hard sanity guards** — every metric carries minimum-elapsed and
  zero-work checks driven by the :mod:`repro.obs` counters
  (``harness.cells_evaluated``, ``samples.collected``, ``cache.hits``);
  the warm phase additionally proves the expensive path did *not* run.
  A violated guard marks the metric (and result) ``invalid`` — it is
  written to disk for forensics, never trusted by ``bench compare``.
* **The meter measures the library, not the meter** — timed windows run
  with the cyclic garbage collector paused (collect before, re-enable
  after, the same hygiene ``timeit``/``pyperf`` apply) and with span
  recording off (guard counters still aggregate).  Otherwise GC pauses
  and tracer bookkeeping — costs no production caller pays by default —
  show up as simulation-throughput noise.

A measured iteration repeats its pass (fresh harness each round, so a
cold round never warms itself) until the timed window clears
``min_elapsed_s`` or hits :data:`MAX_ROUNDS`; the work count scales with
the rounds, so fast phases (warm cache answers a full table in
milliseconds) still produce rates over a window long enough to mean
something.  The min-elapsed guard checks the *final* window, so a
configuration that cannot fill it even at the round cap is flagged
``invalid`` instead of reported.

All timing uses ``time.perf_counter``; the headline value of each metric
is the median across ``iterations`` measured passes, with the raw
per-iteration samples kept in the document.
"""

from __future__ import annotations

import gc
import statistics
import tempfile
import time
from pathlib import Path
from typing import Any

from repro import api
from repro.bench.guards import (
    DEFAULT_MIN_ELAPSED_S,
    check_absent,
    check_min_elapsed,
    check_nonzero_work,
)
from repro.bench.result import BenchResult, GuardCheck, Metric
from repro.core.cache import CacheConfig
from repro.core.experiment import Harness
from repro.core.methods import method_available
from repro.core.tables import TABLE_METHOD_KEYS
from repro.cpu.uarch import get_uarch
from repro.errors import BenchError
from repro.obs import build_manifest, collecting
from repro.obs.log import get_logger
from repro.workloads.registry import APP_NAMES, KERNEL_NAMES

_log = get_logger("bench")

#: Known bench suites and their default workload sets.
SUITES = ("table1", "table2", "sweep")

#: Cap on pass repetitions inside one timed window.  A healthy
#: configuration fills ``min_elapsed_s`` in a handful of rounds; one that
#: cannot (empty work set, absurd threshold) stops here and lets the
#: min-elapsed guard flag the result instead of spinning forever.
MAX_ROUNDS = 64


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def _rate_metric(
    name: str,
    unit: str,
    work_per_round: float,
    windows: list[tuple[float, int]],
    guards: tuple[GuardCheck, ...],
) -> Metric:
    """A throughput metric over ``(elapsed_s, rounds)`` timed windows.

    With zero work there is no defensible rate — the value stays ``None``
    (the zero-work guard in ``guards`` flags the metric invalid).
    """
    samples = ([work_per_round * rounds / elapsed
                for elapsed, rounds in windows if elapsed > 0]
               if work_per_round > 0 else [])
    return Metric(name=name, value=_median(samples), unit=unit,
                  direction="higher", samples=tuple(samples), guards=guards)


def _timed_window(run_pass, min_elapsed_s: float) -> tuple[float, int]:
    """Repeat ``run_pass`` until the window clears ``min_elapsed_s`` (or
    :data:`MAX_ROUNDS`); returns the final ``(elapsed_s, rounds)``.

    The cyclic garbage collector is paused for the duration of the window
    (collect first, so no prior garbage is paid inside it): a GC cycle
    landing in one round is several milliseconds of noise that belongs to
    the process, not the measured pass.  Reference counting — the
    allocation cost the library actually imposes — is still fully paid.
    """
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        rounds = 0
        while True:
            run_pass()
            rounds += 1
            elapsed = time.perf_counter() - started
            if elapsed >= min_elapsed_s or rounds >= MAX_ROUNDS:
                return elapsed, rounds
    finally:
        if was_enabled:
            gc.enable()


def _build_requests(
    suite: str,
    machine: str,
    workloads: tuple[str, ...] | None,
    methods: tuple[str, ...] | None,
    scale: float,
    repeats: int,
    seed_base: int,
) -> list[api.EvaluateRequest]:
    if workloads is None:
        workloads = KERNEL_NAMES if suite == "table1" else APP_NAMES
    methods = methods or TABLE_METHOD_KEYS
    requests = []
    for workload in workloads:
        for method in methods:
            requests.append(api.EvaluateRequest(
                machine=machine, workload=workload, method=method,
                scale=scale, repeats=repeats, seed_base=seed_base,
            ).validate().resolved())
    return requests


def _evaluate_all(requests: list[api.EvaluateRequest],
                  harness: Harness) -> int:
    """Evaluate every request on one shared harness; returns non-blank
    count (the unit of cells/sec work)."""
    non_blank = 0
    for request in requests:
        result = api.evaluate_request(request, harness=harness)
        if not result.blank:
            non_blank += 1
    return non_blank


def run_bench(
    suite: str = "table1",
    *,
    machine: str = "ivybridge",
    workloads: tuple[str, ...] | None = None,
    methods: tuple[str, ...] | None = None,
    periods: tuple[int, ...] | None = None,
    scale: float = 0.05,
    repeats: int = 1,
    seed_base: int = 100,
    iterations: int = 3,
    warmup: int = 1,
    min_elapsed_s: float = DEFAULT_MIN_ELAPSED_S,
    cache_dir: str | Path | None = None,
    cache_max_bytes: int | None = None,
    cache_hot_entries: int = 0,
    area: str | None = None,
) -> BenchResult:
    """Measure one suite; returns a guarded :class:`BenchResult`.

    ``suite`` is ``table1`` (kernel cells), ``table2`` (application
    cells), or ``sweep`` (a small campaign through
    :func:`repro.api.run_campaign`).  ``cache_dir`` hosts the warm phase's
    artifact cache (a temp directory when ``None``); ``cache_max_bytes``
    and ``cache_hot_entries`` shape that cache's tiers (DESIGN.md §12), so
    the warm phase can be measured *under a budget*; ``area`` overrides
    the result's area (defaults to the suite name).
    """
    if suite not in SUITES:
        raise BenchError(f"unknown bench suite {suite!r} "
                         f"(known: {', '.join(SUITES)})")
    if iterations < 1:
        raise BenchError("iterations must be >= 1")
    if warmup < 0:
        raise BenchError("warmup must be >= 0")
    if area is None:
        area = suite
    if suite == "sweep":
        return _run_sweep_bench(
            machine=machine, workloads=workloads, methods=methods,
            periods=periods, scale=scale, repeats=repeats,
            seed_base=seed_base, iterations=iterations, warmup=warmup,
            min_elapsed_s=min_elapsed_s, area=area,
        )
    return _run_cell_bench(
        suite, machine=machine, workloads=workloads, methods=methods,
        scale=scale, repeats=repeats, seed_base=seed_base,
        iterations=iterations, warmup=warmup, min_elapsed_s=min_elapsed_s,
        cache_dir=cache_dir, cache_max_bytes=cache_max_bytes,
        cache_hot_entries=cache_hot_entries, area=area,
    )


# -- cell suites (table1 / table2) ----------------------------------------


def _run_cell_bench(
    suite: str,
    *,
    machine: str,
    workloads: tuple[str, ...] | None,
    methods: tuple[str, ...] | None,
    scale: float,
    repeats: int,
    seed_base: int,
    iterations: int,
    warmup: int,
    min_elapsed_s: float,
    cache_dir: str | Path | None,
    cache_max_bytes: int | None,
    cache_hot_entries: int,
    area: str,
) -> BenchResult:
    requests = _build_requests(suite, machine, workloads, methods,
                               scale, repeats, seed_base)
    uarch = get_uarch(machine)
    non_blank = sum(1 for r in requests if method_available(r.method, uarch))

    config: dict[str, Any] = {
        "suite": suite, "machine": machine,
        "workloads": sorted({r.workload for r in requests}),
        "methods": sorted({r.method for r in requests}),
        "scale": scale, "repeats": repeats, "seed_base": seed_base,
        "iterations": iterations, "warmup": warmup,
        "min_elapsed_s": min_elapsed_s,
        "cells_total": len(requests), "cells_blank": len(requests) - non_blank,
    }

    tmp_ctx = None
    if cache_dir is None:
        tmp_ctx = tempfile.TemporaryDirectory(prefix="repro-bench-cache-")
        cache_dir = tmp_ctx.name
    try:
        # Warmup (un-timed): page in everything, fill the artifact cache.
        # At least one pass always runs — it is also the only honest way
        # to size the work (trace instruction counts) without touching the
        # timed phases.
        instructions_per_pass = 0
        cache_config = CacheConfig(root=str(cache_dir),
                                   max_bytes=cache_max_bytes,
                                   hot_entries=cache_hot_entries)
        warm_harness = Harness(requests[0].config(),
                               cache=cache_config.build())
        for i in range(max(warmup, 1)):
            _evaluate_all(requests, warm_harness)
            _log.debug("bench warmup pass %d/%d done", i + 1, max(warmup, 1))
        for workload in {r.workload for r in requests}:
            per_trace = warm_harness.trace(workload).num_instructions
            cells = sum(
                1 for r in requests
                if r.workload == workload and method_available(r.method, uarch)
            )
            # Each non-blank cell samples the full trace once per seeded
            # repeat: that is the simulated-instruction work of one pass.
            instructions_per_pass += per_trace * repeats * cells

        config_obj = requests[0].config()

        def one_iteration(make_cache) -> tuple[float, int, dict[str, float]]:
            # A fresh harness every round: a cold round must never warm
            # itself through in-process caches, and a warm round must hit
            # the persistent artifact cache, not a previous round's state.
            with collecting(record_spans=False) as collector:
                elapsed, rounds = _timed_window(
                    lambda: _evaluate_all(
                        requests, Harness(config_obj, cache=make_cache())
                    ),
                    min_elapsed_s,
                )
            return elapsed, rounds, collector.metrics.counters()

        cold_runs = []
        for i in range(iterations):
            cold_runs.append(one_iteration(lambda: None))
            _log.debug("bench cold pass %d/%d: %.3fs (%d rounds)",
                       i + 1, iterations, cold_runs[-1][0], cold_runs[-1][1])
        warm_runs = []
        for i in range(iterations):
            warm_runs.append(
                one_iteration(cache_config.build)
            )
            _log.debug("bench warm pass %d/%d: %.3fs (%d rounds)",
                       i + 1, iterations, warm_runs[-1][0], warm_runs[-1][1])
    finally:
        if tmp_ctx is not None:
            tmp_ctx.cleanup()

    cold_counters = [counters for _, _, counters in cold_runs]
    warm_counters = [counters for _, _, counters in warm_runs]
    cold_windows = [(elapsed, rounds) for elapsed, rounds, _ in cold_runs]
    warm_windows = [(elapsed, rounds) for elapsed, rounds, _ in warm_runs]

    cells_evaluated = sum(c.get("harness.cells_evaluated", 0)
                          for c in cold_counters)
    samples_collected = sum(c.get("samples.collected", 0)
                            for c in cold_counters)
    warm_evaluated = sum(c.get("harness.cells_evaluated", 0)
                         for c in warm_counters)
    warm_hits = sum(c.get("cache.hits", 0) for c in warm_counters)

    cold_guards = (
        check_min_elapsed(min(e for e, _ in cold_windows), min_elapsed_s),
        check_nonzero_work(cells_evaluated, "harness.cells_evaluated"),
        check_nonzero_work(samples_collected, "samples.collected",
                           name="nonzero_samples"),
    )
    warm_guards = (
        check_min_elapsed(min(e for e, _ in warm_windows), min_elapsed_s),
        check_nonzero_work(warm_hits, "cache.hits"),
        check_absent(warm_evaluated, "harness.cells_evaluated"),
    )

    metrics = (
        _rate_metric("cold.cells_per_s", "cells/s",
                     non_blank, cold_windows, cold_guards),
        _rate_metric("cold.instructions_per_s", "instr/s",
                     instructions_per_pass, cold_windows, cold_guards),
        _rate_metric("warm.cells_per_s", "cells/s",
                     non_blank, warm_windows, warm_guards),
    )
    return BenchResult(
        area=area,
        kind="bench",
        config=config,
        metrics=metrics,
        details={
            "cold_windows": [list(w) for w in cold_windows],
            "warm_windows": [list(w) for w in warm_windows],
            "instructions_per_pass": instructions_per_pass,
            "cold_counters": cold_counters,
            "warm_counters": warm_counters,
        },
        provenance=build_manifest(config=config,
                                  extra={"bench_suite": suite}),
    )


# -- sweep suite -----------------------------------------------------------


def _run_sweep_bench(
    *,
    machine: str,
    workloads: tuple[str, ...] | None,
    methods: tuple[str, ...] | None,
    periods: tuple[int, ...] | None,
    scale: float,
    repeats: int,
    seed_base: int,
    iterations: int,
    warmup: int,
    min_elapsed_s: float,
    area: str,
) -> BenchResult:
    spec = api.CampaignSpec(
        name="bench-sweep",
        workloads=workloads or ("callchain",),
        methods=methods or ("classic", "precise"),
        machines=(machine,),
        periods=periods or (500, 1000, 2000),
        seed_counts=(repeats,),
        seed_base=seed_base,
        scale=scale,
    )
    points = len(spec.expand())
    config: dict[str, Any] = {
        "suite": "sweep", "machine": machine,
        "workloads": list(spec.workloads), "methods": list(spec.methods),
        "periods": list(spec.periods), "scale": scale, "repeats": repeats,
        "seed_base": seed_base,
        "iterations": iterations, "warmup": warmup,
        "min_elapsed_s": min_elapsed_s, "points": points,
    }

    with tempfile.TemporaryDirectory(prefix="repro-bench-sweep-") as root:
        root_path = Path(root)
        sequence = iter(range(1_000_000))

        def one_campaign() -> None:
            # Every campaign run gets a fresh directory: the engine must
            # never see a previous round's journal (that would be resume,
            # not a measurement).
            api.run_campaign(spec, root_path / f"campaign-{next(sequence)}",
                             jobs=1, cache=False)

        for _ in range(warmup):
            one_campaign()
        runs = []
        for i in range(iterations):
            with collecting(record_spans=False) as collector:
                window = _timed_window(one_campaign, min_elapsed_s)
            runs.append((*window, collector.metrics.counters()))
            _log.debug("bench sweep pass %d/%d: %.3fs (%d rounds)",
                       i + 1, iterations, runs[-1][0], runs[-1][1])

    counters = [c for _, _, c in runs]
    windows = [(elapsed, rounds) for elapsed, rounds, _ in runs]
    cells_done = sum(c.get("sweep.cells_done", 0) for c in counters)
    guards = (
        check_min_elapsed(min(e for e, _ in windows), min_elapsed_s),
        check_nonzero_work(cells_done, "sweep.cells_done"),
    )
    metrics = (
        _rate_metric("sweep.points_per_s", "points/s",
                     points, windows, guards),
    )
    return BenchResult(
        area=area,
        kind="bench",
        config=config,
        metrics=metrics,
        details={"windows": [list(w) for w in windows],
                 "counters": counters},
        provenance=build_manifest(config=config,
                                  extra={"bench_suite": "sweep"}),
    )
