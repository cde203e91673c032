"""Per-layer spans recorded from outside the program.

:func:`install` replaces each layer's public function *where the program
looks it up* (a module attribute, a class attribute or a dispatch-table
entry) with a wrapper that times the call into a :class:`Probe`.  Nothing
inside ``src/`` changes: a traced run is the shipped program plus these
wrappers, so the difference between a traced and an untraced run is the
cost of tracing.

Spans nest per thread.  A span's *self* time is its duration minus the
time covered by the spans it contains, which is how ``core.harness_self_s``
separates harness glue from the layers it calls.

Process-pool workers are forked after :func:`install`, so they inherit
the wrappers.  Their spans come back through files: the wrapper around
``repro.core.parallel._evaluate_group`` resets the worker's probe before
each task and writes its totals to the spool directory named by
``$PERFBENCH_SPOOL`` afterwards; :func:`merge_spool` folds them into the
parent's totals.
"""

from __future__ import annotations

import json
import os
import threading
import time
import weakref
from collections import Counter, defaultdict
from pathlib import Path

#: Environment variable naming the directory pool workers write spans to.
SPOOL_ENV = "PERFBENCH_SPOOL"


class Probe:
    """Thread-safe span totals: seconds, self seconds and calls per name."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.seconds: dict[str, float] = defaultdict(float)
            self.self_seconds: dict[str, float] = defaultdict(float)
            self.calls: Counter = Counter()
            self.counts: Counter = Counter()
            #: (span name, engine class) -> calls
            self.engines: Counter = Counter()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self) -> list:
        frame = [time.perf_counter(), 0.0]
        self._stack().append(frame)
        return frame

    def leave(self, name: str, frame: list) -> float:
        elapsed = time.perf_counter() - frame[0]
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][1] += elapsed
        with self._lock:
            self.seconds[name] += elapsed
            self.self_seconds[name] += elapsed - frame[1]
            self.calls[name] += 1
        return elapsed

    def add(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] += value

    def engine(self, name: str, obj: object) -> None:
        with self._lock:
            self.engines[f"{name}:{type(obj).__name__}"] += 1

    # -- transport ---------------------------------------------------------

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "seconds": dict(self.seconds),
                "self_seconds": dict(self.self_seconds),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
                "engines": dict(self.engines),
            }

    def merge(self, snap: dict) -> None:
        with self._lock:
            for key in ("seconds", "self_seconds", "calls", "counts",
                        "engines"):
                target = getattr(self, key)
                for name, value in snap.get(key, {}).items():
                    target[name] += value

    def dump(self, path: Path) -> None:
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(self.snapshot()), encoding="utf-8")
        os.replace(tmp, path)


PROBE = Probe()
#: The unwrapped ``repro.core.parallel._evaluate_group``, once installed.
_evaluate_group = None


def _timed(name: str, fn, after=None, engine_of=None):
    """A wrapper that records ``fn``'s calls as span ``name``.

    ``after(result, args)`` runs inside the span (for counts, or to force
    lazily computed work that belongs to this layer); ``engine_of(args)``
    names the object whose class served the call.
    """

    def wrapper(*args, **kwargs):
        if engine_of is not None:
            PROBE.engine(name, engine_of(args))
        frame = PROBE.enter()
        try:
            result = fn(*args, **kwargs)
            if after is not None:
                after(result, args)
            return result
        finally:
            PROBE.leave(name, frame)

    wrapper.__wrapped__ = fn
    return wrapper


def _patch(owner, attr: str, name: str, **options) -> None:
    setattr(owner, attr, _timed(name, getattr(owner, attr), **options))


# -- cache: the first call on a fresh ArtifactCache is its "open" ---------

_OPENED: "weakref.WeakSet" = weakref.WeakSet()
_OPENED_LOCK = threading.Lock()


def _cache_op(kind: str, fn):
    def wrapper(self, *args, **kwargs):
        with _OPENED_LOCK:
            first = self not in _OPENED
            if first:
                _OPENED.add(self)
        name = "core.cache.open" if first else f"core.cache.{kind}"
        frame = PROBE.enter()
        try:
            result = fn(self, *args, **kwargs)
            if kind == "get":
                PROBE.add("core.cache.gets")
                if result is not None:
                    PROBE.add("core.cache.hits")
            return result
        finally:
            PROBE.leave(name, frame)

    wrapper.__wrapped__ = fn
    return wrapper


# -- process-pool workers --------------------------------------------------


def _traced_evaluate_group(*args, **kwargs):
    """Stand-in for ``repro.core.parallel._evaluate_group`` in workers."""
    if _evaluate_group is None:             # a spawned (not forked) worker
        install()
    PROBE.reset()
    try:
        return _evaluate_group(*args, **kwargs)
    finally:
        spool = os.environ.get(SPOOL_ENV)
        if spool:
            PROBE.dump(Path(spool)
                       / f"worker-{os.getpid()}-{time.monotonic_ns()}.json")


def merge_spool(spool: Path) -> None:
    """Fold every worker span file in ``spool`` into :data:`PROBE`."""
    for path in sorted(spool.glob("worker-*.json")):
        PROBE.merge(json.loads(path.read_text(encoding="utf-8")))


def _evaluate_cells(fn):
    """Time the scheduler and sum the per-cell seconds it reports."""

    def wrapper(config, specs, jobs=1, *args, on_result=None, **kwargs):
        def counted(spec, value, seconds, done, total):
            PROBE.add("core.parallel.cell_s", seconds)
            if on_result is not None:
                on_result(spec, value, seconds, done, total)

        frame = PROBE.enter()
        started = time.perf_counter()
        try:
            return fn(config, specs, jobs, *args, on_result=counted, **kwargs)
        finally:
            PROBE.add("core.parallel.capacity_s",
                      max(jobs, 1) * (time.perf_counter() - started))
            PROBE.leave("core.parallel.busy", frame)

    wrapper.__wrapped__ = fn
    return wrapper


def install() -> None:
    """Wrap every layer's public entry point (idempotent)."""
    global _evaluate_group
    if _evaluate_group is not None:
        return
    import repro.core.experiment as experiment
    import repro.core.parallel as parallel
    import repro.core.runner as runner
    import repro.fidelity.evaluate as fidelity
    import repro.sweep as sweep
    import repro.sweep.engine as sweep_engine
    from repro.api import EvaluateRequest, EvaluateResult
    from repro.core.cache import ArtifactCache
    from repro.cpu.engine import ReferenceEngine
    from repro.cpu.fastengine import FastEngine
    from repro.pmu.fastpath import FastSampler
    from repro.pmu.sampler import Sampler
    from repro.sweep.journal import CampaignJournal

    def count_instructions(trace, _args):
        PROBE.add("cpu.instructions", trace.num_instructions)

    # Retirement timing and branch prediction are computed lazily on first
    # use; charge them to the execution layer, not to sampling.  Force only
    # what the engine's own sampler reads: the reference Sampler reads the
    # per-instruction retirement array, FastSampler only the per-occurrence
    # mispredictions, on machines with a refill penalty (it never builds
    # the array).
    def force_retirement(execution, _args):
        execution.retire_cycles  # noqa: B018 - cached_property

    def force_prediction(execution, _args):
        if execution.uarch.mispredict_penalty_cycles > 0:
            execution.predictor.occurrence_mispredicts  # noqa: B018

    def count_samples(batch, _args):
        PROBE.add("pmu.samples", batch.num_samples)

    def self_object(args):
        return args[0]

    for engine, force in ((ReferenceEngine, force_retirement),
                          (FastEngine, force_prediction)):
        _patch(engine, "program", "workloads.build", engine_of=self_object)
        _patch(engine, "trace", "cpu.trace", after=count_instructions,
               engine_of=self_object)
        _patch(engine, "execution", "cpu.execution", after=force,
               engine_of=self_object)
    for sampler in (Sampler, FastSampler):
        _patch(sampler, "collect", "pmu.collect", after=count_samples,
               engine_of=self_object)
    for module in (experiment, runner, fidelity):
        _patch(module, "collect_reference", "instrumentation.reference")
    for key, attributor in list(runner._ATTRIBUTORS.items()):
        runner._ATTRIBUTORS[key] = _timed("core.attribute", attributor)
    _patch(runner, "profile_error", "core.score")
    _patch(fidelity, "evaluate_fidelity", "fidelity.evaluate")
    _patch(experiment.Harness, "evaluate_cell", "core.harness")
    for attr in ("validate", "resolved"):
        _patch(EvaluateRequest, attr, "api.request")
    _patch(EvaluateResult, "to_json", "api.request")
    for kind in ("get", "put"):
        for attr in (f"{kind}_stats", f"{kind}_fidelity", f"{kind}_arrays"):
            setattr(ArtifactCache, attr,
                    _cache_op(kind, getattr(ArtifactCache, attr)))
    sweep_engine.evaluate_cells = _evaluate_cells(sweep_engine.evaluate_cells)
    _patch(CampaignJournal, "record", "sweep.journal")
    _patch(sweep, "write_reports", "sweep.report")
    _evaluate_group = parallel._evaluate_group
    parallel._evaluate_group = _traced_evaluate_group
