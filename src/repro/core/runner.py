"""Run one sampling method over one execution and score it.

This is the inner loop of every experiment: resolve a Table 3 method on the
machine, collect samples, post-process them into a profile, normalize the
profile to the known retired-instruction total (profilers get it from
counting mode), and score against the instrumentation reference.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Iterable

import numpy as np

from repro.errors import EvaluationAborted
from repro.cpu.machine import Execution
from repro.instrumentation.reference import ReferenceCounts, collect_reference
from repro.obs import count, span
from repro.pmu.sampler import SampleBatch
from repro.core.accuracy import profile_error
from repro.core.attribution import attribute_plain
from repro.core.ip_fix import attribute_with_ip_fix
from repro.core.lbr_counts import attribute_lbr
from repro.core.methods import Attribution, ResolvedMethod, resolve_method
from repro.core.profile import Profile
from repro.core.stats import AccuracyStats, summarize_errors

_ATTRIBUTORS = {
    Attribution.PLAIN: attribute_plain,
    Attribution.IP_FIX: attribute_with_ip_fix,
    Attribution.LBR_COUNTS: attribute_lbr,
}


def resolve_engine(engine=None):
    """``engine``, or a fresh :class:`~repro.cpu.fastengine.FastEngine`
    (imported here, so that importing the public API stays cheap)."""
    if engine is None:
        from repro.cpu.fastengine import FastEngine

        engine = FastEngine()
    return engine


def cell_seed(
    machine: str, workload: str, method_key: str, period: int
) -> int:
    """Deterministic RNG seed for one experiment cell.

    A stable hash of the cell coordinates, identical in every process and
    on every run — the seed randomized-period methods fall back to when no
    explicit seed is given, so parallel and serial campaign runs stay
    bit-identical (DESIGN.md §7).
    """
    text = f"{machine}/{workload}/{method_key}@{period}"
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def run_method(
    execution: Execution,
    method_key: str,
    base_period: int,
    rng: np.random.Generator | int | None = None,
    normalize: bool = True,
    resolved: ResolvedMethod | None = None,
    engine=None,
) -> tuple[Profile, SampleBatch]:
    """Collect and post-process one profiling run.

    Returns the (optionally normalized) profile plus the raw sample batch
    for callers that inspect samples directly. Callers that repeat the same
    method pass the pre-bound ``resolved`` method to skip re-resolution.

    ``rng=None`` does *not* mean fresh OS entropy: randomized-period
    methods must never depend on process-global or ambient RNG state, or
    parallel runs would diverge from serial ones.  It derives a
    deterministic per-cell seed (:func:`cell_seed`) instead; pass a seeded
    generator (as :func:`evaluate_method` does) for repeat-level control.

    ``engine`` supplies the sample collector (:func:`resolve_engine`:
    ``None`` means a fresh fast engine); every engine's batches are
    bit-identical, so the profile and errors never depend on the choice.
    """
    if rng is None:
        rng = np.random.default_rng(cell_seed(
            execution.uarch.name, execution.program.name,
            method_key, base_period,
        ))
    elif not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    if resolved is None:
        resolved = resolve_method(method_key, execution.uarch, base_period)
    with span("run_method", method=method_key,
              machine=execution.uarch.name,
              workload=execution.program.name,
              period=base_period):
        collector = resolve_engine(engine).sampler(execution)
        batch = collector.collect(resolved.config, rng)
        profile = _ATTRIBUTORS[resolved.attribution](batch, method=method_key)
        if normalize:
            profile = normalized(profile, execution)
    return profile, batch


def normalized(profile: Profile, execution: Execution) -> Profile:
    """``profile`` rescaled to the execution's retired-instruction total
    (profilers get it from counting mode).

    A run too short to deliver any sample yields an honest all-zero
    profile (its error against the reference is 1.0): there is nothing to
    normalize, so it comes back unchanged.
    """
    if profile.total_estimate > 0:
        return profile.normalized_to(execution.trace.num_instructions)
    return profile


def evaluate_method(
    execution: Execution,
    method_key: str,
    base_period: int,
    seeds: Iterable[int] = range(5),
    normalize: bool = True,
    reference: ReferenceCounts | None = None,
    abort: Callable[[], bool] | None = None,
    engine=None,
) -> AccuracyStats:
    """Score one method over repeated runs (the paper's five repeats).

    The method is resolved and the reference counts are built once, shared
    across every seeded repeat; ``runner.resolve_reused`` counts the
    re-resolutions saved.

    ``abort`` is polled between seeded repeats (the finest cancellation
    granularity that cannot perturb results — each repeat is seeded
    independently); a truthy return raises :class:`EvaluationAborted`, so
    long-running service jobs stop burning CPU once their deadline passes.

    One engine (:func:`resolve_engine`) serves every repeat; errors are
    identical for every engine (bit-identical sample batches).
    """
    if reference is None:
        with span("reference", workload=execution.program.name):
            reference = collect_reference(execution.trace)
    resolved = resolve_method(method_key, execution.uarch, base_period)
    engine = resolve_engine(engine)
    errors: list[float] = []
    for seed in seeds:
        if abort is not None and abort():
            raise EvaluationAborted(
                f"evaluation of {method_key!r} aborted after "
                f"{len(errors)} of the requested repeats"
            )
        profile, _ = run_method(
            execution, method_key, base_period,
            rng=np.random.default_rng(seed), normalize=normalize,
            resolved=resolved, engine=engine,
        )
        with span("score", method=method_key):
            errors.append(profile_error(profile, reference).error)
    count("runner.resolve_reused", max(len(errors) - 1, 0))
    return summarize_errors(method_key, errors)
