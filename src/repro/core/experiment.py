"""The experiment harness: caches traces and scores (machine, workload,
method) cells.

Traces are microarchitecture-independent and expensive (the interpreter
runs millions of blocks), so the harness executes each workload once and
re-observes the trace on every machine.  Cells are addressed by the frozen
:class:`CellSpec` dataclass — the one key type shared by the harness, the
table assembler, and the parallel scheduler — and, when the harness is
given an :class:`~repro.core.cache.ArtifactCache`, traces, reference
counts, and per-cell stats persist across processes and runs.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

import numpy as np

from repro.cpu.engine import Engine
from repro.cpu.machine import Execution
from repro.cpu.trace import Trace
from repro.cpu.uarch import ALL_UARCHES, get_uarch
from repro.instrumentation.reference import ReferenceCounts, collect_reference
from repro.obs import count, span
from repro.core.cache import ArtifactCache, cache_digest
from repro.core.methods import method_available
from repro.core.runner import evaluate_method
from repro.core.stats import AccuracyStats
from repro.workloads.registry import get_workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fidelity.stats import FidelityStats

#: Machine names in the order the paper's tables list them.
DEFAULT_MACHINES: tuple[str, ...] = tuple(u.name for u in ALL_UARCHES)


@dataclass(frozen=True)
class CellSpec:
    """Address of one table cell: (machine, workload, method, period).

    ``period=None`` means "the workload's default round base period"; the
    harness resolves it before the spec is used as a cache key.  The class
    is frozen and contains only strings/ints, so it hashes, pickles, and
    crosses process boundaries unchanged — it is the unit the parallel
    scheduler dispatches.
    """

    machine: str
    workload: str
    method: str
    period: int | None = None

    def resolved(self, period: int) -> "CellSpec":
        """This spec with a concrete period filled in."""
        if self.period == period:
            return self
        return replace(self, period=period)

    def __str__(self) -> str:
        suffix = "" if self.period is None else f"@{self.period}"
        return f"{self.machine}/{self.workload}/{self.method}{suffix}"


class CellScores(NamedTuple):
    """What :meth:`Harness.evaluate_cell` returns for one cell."""

    #: Accuracy stats; ``None`` for a blank cell.
    stats: AccuracyStats | None
    #: Consumer fidelity; ``None`` unless requested (and for blank cells).
    fidelity: FidelityStats | None


@dataclass(frozen=True)
class ExperimentConfig:
    """Global experiment parameters.

    ``scale`` multiplies workload sizes (1.0 ≈ a few million instructions);
    ``repeats`` is the number of seeded runs per cell (the paper uses five).
    """

    scale: float = 1.0
    repeats: int = 5
    seed_base: int = 100
    machines: tuple[str, ...] = DEFAULT_MACHINES

    @property
    def seeds(self) -> range:
        return range(self.seed_base, self.seed_base + self.repeats)


def _fast_engine() -> Engine:
    # Imported on first use so that importing the public API stays cheap.
    from repro.cpu.fastengine import FastEngine

    return FastEngine()


def build_trace(
    workload_name: str,
    scale: float = 1.0,
    engine: Engine | None = None,
    program=None,
) -> Trace:
    """Interpret one workload into its (microarchitecture-neutral) trace.

    The dynamic block sequence depends only on the program, never on a
    machine (see DESIGN.md: all three machines differ only in timing and
    PMU features), so no uarch participates here.  This is the one
    trace-building helper: :meth:`Harness.trace` routes through it too.
    ``engine`` defaults to a fresh fast engine; ``program`` short-circuits
    the workload build when the caller already holds one.
    """
    engine = engine or _fast_engine()
    if program is None:
        program = engine.program(workload_name, scale)
    return engine.trace(program)


class Harness:
    """Caches executions and per-cell accuracy statistics.

    ``cache`` is an optional persistent :class:`ArtifactCache`; without it
    the harness caches in-process only.  ``engine`` is the execution
    back-end; by default the harness creates a
    :class:`~repro.cpu.fastengine.FastEngine` on first use.  Engines share
    executions across calls, so each harness holds its own instance and
    that sharing never leaks across benchmark rounds.  Pass a
    :class:`~repro.cpu.engine.ReferenceEngine` to check a result against
    the oracle; both give bit-identical results.
    """

    def __init__(
        self,
        config: ExperimentConfig | None = None,
        cache: ArtifactCache | None = None,
        engine: Engine | None = None,
    ) -> None:
        self.config = config or ExperimentConfig()
        self.cache = cache
        self._engine = engine
        self._traces: dict[str, Trace] = {}
        self._references: dict[str, ReferenceCounts] = {}
        self._cells: dict[CellSpec, AccuracyStats] = {}
        self._fidelity: dict[tuple[CellSpec, int], FidelityStats] = {}

    @property
    def engine(self) -> Engine:
        """The harness's engine instance (created on first use)."""
        if self._engine is None:
            self._engine = _fast_engine()
        return self._engine

    # -- cache keys --------------------------------------------------------

    def _trace_digest(self, workload_name: str) -> str:
        workload = get_workload(workload_name)
        return cache_digest(kind="trace", workload=workload_name,
                            scale=self.config.scale,
                            seed=workload.default_seed)

    def _reference_digest(self, workload_name: str) -> str:
        workload = get_workload(workload_name)
        return cache_digest(kind="reference", workload=workload_name,
                            scale=self.config.scale,
                            seed=workload.default_seed)

    def _cell_digest(self, spec: CellSpec) -> str:
        return cache_digest(kind="stats", workload=spec.workload,
                            scale=self.config.scale, uarch=spec.machine,
                            method=spec.method, period=spec.period,
                            seeds=list(self.config.seeds))

    def _fidelity_digest(self, spec: CellSpec, top_n: int) -> str:
        return cache_digest(kind="fidelity", workload=spec.workload,
                            scale=self.config.scale, uarch=spec.machine,
                            method=spec.method, period=spec.period,
                            seeds=list(self.config.seeds), top_n=top_n)

    # -- artifacts ---------------------------------------------------------

    @contextlib.contextmanager
    def pinned_workload(self, workload_name: str) -> Iterator[None]:
        """Pin one workload's trace and reference entries in the cache.

        Under a budgeted cache (DESIGN.md §12), LRU eviction must never
        pull a trace out from under a cell that is mid-evaluation — an
        evicted entry is only *correctness*-invisible, and thrashing the
        entry a cell is actively re-reading would be pathological.  The
        harness pins around each cell, and the parallel scheduler pins
        around each workload group's whole dispatch.  Without a
        persistent cache this is a no-op.
        """
        if self.cache is None:
            yield
            return
        with self.cache.pinned(
            ("trace", self._trace_digest(workload_name)),
            ("reference", self._reference_digest(workload_name)),
        ):
            yield

    def trace(self, workload_name: str) -> Trace:
        """The (cached) dynamic trace of one workload at the config scale.

        The persistent trace cache is engine-agnostic: engines are
        bit-identical by contract, so whichever one built the sequence
        first serves every later request.
        """
        if workload_name not in self._traces:
            engine = self.engine
            with span("workload", workload=workload_name,
                      scale=self.config.scale):
                program = engine.program(workload_name, self.config.scale)
                block_seq = None
                if self.cache is not None:
                    digest = self._trace_digest(workload_name)
                    arrays = self.cache.get_arrays(
                        "trace", digest, ("block_seq",)
                    )
                    if arrays is not None:
                        candidate = arrays["block_seq"]
                        # Shape guard: a stale or corrupt sequence indexing
                        # past the program's blocks is a miss, not a crash.
                        if (candidate.ndim == 1 and candidate.size > 0
                                and int(candidate.max()) < program.num_blocks
                                and int(candidate.min()) >= 0):
                            block_seq = candidate.astype(np.int32)
                if block_seq is None:
                    trace = build_trace(workload_name, self.config.scale,
                                        engine=engine, program=program)
                    if self.cache is not None:
                        self.cache.put_arrays(
                            "trace", self._trace_digest(workload_name),
                            block_seq=trace.block_seq,
                        )
                else:
                    trace = Trace(program, block_seq)
            self._traces[workload_name] = trace
        return self._traces[workload_name]

    def execution(self, machine_name: str, workload_name: str) -> Execution:
        """The workload observed on one machine (trace shared)."""
        return self.engine.execution(get_uarch(machine_name),
                                     self.trace(workload_name))

    def reference(self, workload_name: str) -> ReferenceCounts:
        """Exact instrumentation counts for one workload."""
        if workload_name not in self._references:
            trace = self.trace(workload_name)
            reference = None
            if self.cache is not None:
                arrays = self.cache.get_arrays(
                    "reference", self._reference_digest(workload_name),
                    ("block_exec_counts", "block_instr_counts"),
                )
                if arrays is not None \
                        and arrays["block_exec_counts"].shape \
                        == (trace.program.num_blocks,) \
                        and arrays["block_instr_counts"].shape \
                        == (trace.program.num_blocks,):
                    reference = ReferenceCounts(
                        program=trace.program,
                        block_exec_counts=arrays["block_exec_counts"],
                        block_instr_counts=arrays["block_instr_counts"],
                    )
            if reference is None:
                with span("reference", workload=workload_name):
                    reference = collect_reference(trace)
                if self.cache is not None:
                    self.cache.put_arrays(
                        "reference", self._reference_digest(workload_name),
                        block_exec_counts=reference.block_exec_counts,
                        block_instr_counts=reference.block_instr_counts,
                    )
            self._references[workload_name] = reference
        return self._references[workload_name]

    def period_for(self, workload_name: str) -> int:
        """The workload's default round base period."""
        return get_workload(workload_name).default_period

    # -- cells -------------------------------------------------------------

    def evaluate_cell(
        self,
        spec: CellSpec,
        abort: Callable[[], bool] | None = None,
        fidelity_top_n: int | None = None,
    ) -> CellScores:
        """Scores of one cell: accuracy stats and, when ``fidelity_top_n``
        is given, consumer fidelity at that top-N.

        A method that is not implementable on the machine (the paper's
        blank cells) scores ``CellScores(None, None)``.  Each half is
        looked up in the in-process memo, then the persistent cache (if
        any).  What is missing is evaluated, counted as
        ``harness.cells_evaluated`` / ``harness.fidelity_evaluated``, and
        written; a half that was already cached is not written again.  A
        cell that needs fidelity samples once per seed and scores both
        halves from that pass
        (:func:`~repro.fidelity.evaluate.evaluate_fidelity`).  ``abort``
        (an optional zero-arg callable) is polled between seeded repeats;
        an aborted cell writes nothing to either cache.
        """
        spec = spec.resolved(spec.period or self.period_for(spec.workload))
        want_fidelity = fidelity_top_n is not None
        fidelity_key = (spec, fidelity_top_n)
        stats = self._cells.get(spec)
        if stats is not None:
            count("harness.cell_cache_hits")
        fidelity = self._fidelity.get(fidelity_key)
        if fidelity is not None:
            count("harness.fidelity_cache_hits")
        if stats is not None and (fidelity is not None or not want_fidelity):
            return CellScores(stats, fidelity)
        if not method_available(spec.method, get_uarch(spec.machine)):
            return CellScores(None, None)
        if self.cache is not None:
            if stats is None:
                stats = self.cache.get_stats(self._cell_digest(spec))
                if stats is not None:
                    self._cells[spec] = stats
            if want_fidelity and fidelity is None:
                fidelity = self.cache.get_fidelity(
                    self._fidelity_digest(spec, fidelity_top_n))
                if fidelity is not None:
                    self._fidelity[fidelity_key] = fidelity
        fresh_stats = stats is None
        fresh_fidelity = want_fidelity and fidelity is None
        if not (fresh_stats or fresh_fidelity):
            return CellScores(stats, fidelity)

        with self.pinned_workload(spec.workload), \
                span("cell", machine=spec.machine, workload=spec.workload,
                     method=spec.method, period=spec.period):
            execution = self.execution(spec.machine, spec.workload)
            reference = self.reference(spec.workload)
            if want_fidelity:
                # Imported on use: repro.fidelity itself imports repro.core.
                from repro.fidelity.evaluate import evaluate_fidelity

                new_stats, new_fidelity = evaluate_fidelity(
                    execution, spec.method, spec.period,
                    seeds=self.config.seeds, reference=reference,
                    top_n=fidelity_top_n, abort=abort, engine=self.engine,
                )
            else:
                new_stats, new_fidelity = evaluate_method(
                    execution, spec.method, spec.period,
                    seeds=self.config.seeds, reference=reference,
                    abort=abort, engine=self.engine,
                ), None
        if fresh_stats:
            stats = new_stats
            count("harness.cells_evaluated")
            self._cells[spec] = stats
            if self.cache is not None:
                self.cache.put_stats(self._cell_digest(spec), stats)
        if fresh_fidelity:
            fidelity = new_fidelity
            count("harness.fidelity_evaluated")
            self._fidelity[fidelity_key] = fidelity
            if self.cache is not None:
                self.cache.put_fidelity(
                    self._fidelity_digest(spec, fidelity_top_n), fidelity)
        return CellScores(stats, fidelity)

    def cell(
        self,
        machine_name: str,
        workload_name: str,
        method_key: str,
        base_period: int | None = None,
    ) -> AccuracyStats | None:
        """Accuracy stats of one cell (``None`` when blank): a
        positional-argument convenience over :meth:`evaluate_cell`."""
        return self.evaluate_cell(
            CellSpec(machine_name, workload_name, method_key, base_period)
        ).stats
