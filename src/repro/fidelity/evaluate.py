"""Evaluate one method's accuracy and consumer fidelity over one execution.

One sampling pass per seeded repeat feeds both scorers: the paper's
``err(x)`` is scored on the normalized copy of the profile, exactly as
:func:`repro.core.runner.evaluate_method` scores it, and the consumer
metrics (see :mod:`repro.fidelity`) on the raw profile and its batch.

Sample-efficiency is measured by replaying each repeat's sample batch in
prefixes: the batch is cut at a geometric ladder of sample counts and the
inlining decision recomputed for each prefix. The prefix profiles are cut
from one per-sample attribution of the batch (the block of each sample,
or for LBR its segments), which equals re-attributing each prefix on its
own because samples are credited in order. The convergence point is the
smallest ladder count from which the decision matches the reference
decision at every larger ladder count — i.e. the decision has not just
matched once but *stayed* matched. Everything is a pure function of the
batch, so results are bit-identical across engines, ``--jobs``, and local
vs distributed runs.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from repro.errors import EvaluationAborted
from repro.cpu.machine import Execution
from repro.instrumentation.reference import ReferenceCounts, collect_reference
from repro.obs import count, span
from repro.pmu.sampler import SampleBatch
from repro.core import runner
from repro.core.attribution import block_of_samples, credit_blocks
from repro.core.ip_fix import corrected_blocks
from repro.core.lbr_counts import lbr_segments
from repro.core.methods import Attribution, resolve_method
from repro.core.stats import AccuracyStats, summarize_errors
from repro.fidelity.decisions import (
    inline_candidates,
    layout_agreement,
    selection_agreement,
)
from repro.fidelity.metrics import (
    TOP_N_DEFAULT,
    jaccard_at_n,
    weighted_rank_agreement,
)
from repro.fidelity.stats import FidelityStats


def convergence_ladder(num_samples: int) -> list[int]:
    """Sample-count cut points: powers of two, plus the full batch."""
    ladder: list[int] = []
    m = 1
    while m < num_samples:
        ladder.append(m)
        m *= 2
    if num_samples > 0:
        ladder.append(num_samples)
    return ladder


def _prefix_estimates(
    batch: SampleBatch, attribution: Attribution
) -> Callable[[int], np.ndarray]:
    """``estimates(m)``: the block estimates of the batch's first ``m``
    samples, cut from one per-sample attribution of the whole batch."""
    program = batch.execution.program
    if attribution is Attribution.LBR_COUNTS:
        segments = lbr_segments(batch)
        sizes = program.tables.block_sizes
        return lambda m: segments.exec_counts(m) * sizes
    blocks = (corrected_blocks(batch) if attribution is Attribution.IP_FIX
              else block_of_samples(batch))
    period = float(batch.nominal_period)
    return lambda m: credit_blocks(blocks[:m], program.num_blocks, period)


def _convergence_samples(
    batch: SampleBatch,
    attribution: Attribution,
    ref_inline: frozenset[int],
    full_inline: frozenset[int],
) -> int | None:
    """Samples needed for the inlining decision to converge, else None.

    ``full_inline`` is the whole batch's decision, the ladder's last rung.
    """
    ladder = convergence_ladder(batch.num_samples)
    if not ladder:
        return None
    estimates = _prefix_estimates(batch, attribution)
    block_func = batch.execution.program.tables.block_func
    num_functions = len(batch.execution.program.functions)
    matches: list[bool] = []
    for m in ladder[:-1]:
        functions = np.bincount(block_func, weights=estimates(m),
                                minlength=num_functions)
        matches.append(inline_candidates(functions) == ref_inline)
    matches.append(full_inline == ref_inline)
    # Smallest ladder point from which every later decision also matches.
    converged_from: int | None = None
    for m, ok in zip(reversed(ladder), reversed(matches)):
        if not ok:
            break
        converged_from = m
    return converged_from


def evaluate_fidelity(
    execution: Execution,
    method_key: str,
    base_period: int,
    seeds: Iterable[int] = range(5),
    reference: ReferenceCounts | None = None,
    top_n: int = TOP_N_DEFAULT,
    abort: Callable[[], bool] | None = None,
    engine=None,
) -> tuple[AccuracyStats, FidelityStats]:
    """Score one method's accuracy and consumer fidelity over seeded
    repeats, sampling once per repeat.

    Seeding matches :func:`~repro.core.runner.evaluate_method` run for
    run, and the accuracy half equals what it returns, so fidelity
    describes exactly the profiles the accuracy numbers describe.
    ``abort`` is polled between repeats; ``engine`` is forwarded to
    :func:`~repro.core.runner.run_method` (bit-identical batches, so
    neither half depends on the engine).
    """
    if reference is None:
        with span("reference", workload=execution.program.name):
            reference = collect_reference(execution.trace)
    resolved = resolve_method(method_key, execution.uarch, base_period)
    ref_blocks = reference.block_instr_counts.astype(np.float64)
    ref_inline = inline_candidates(
        reference.function_instr_counts().astype(np.float64)
    )

    errors: list[float] = []
    jaccard: list[float] = []
    rank: list[float] = []
    inline: list[float] = []
    layout: list[float] = []
    convergence: list[int | None] = []
    with span("fidelity", method=method_key,
              machine=execution.uarch.name,
              workload=execution.program.name,
              period=base_period):
        for seed in seeds:
            if abort is not None and abort():
                raise EvaluationAborted(
                    f"evaluation of {method_key!r} aborted after "
                    f"{len(errors)} of the requested repeats"
                )
            profile, batch = runner.run_method(
                execution, method_key, base_period,
                rng=np.random.default_rng(seed), normalize=False,
                resolved=resolved, engine=engine,
            )
            with span("score", method=method_key):
                errors.append(runner.profile_error(
                    runner.normalized(profile, execution), reference,
                ).error)
            est_blocks = profile.block_instr_estimates
            jaccard.append(jaccard_at_n(est_blocks, ref_blocks, top_n))
            rank.append(weighted_rank_agreement(est_blocks, ref_blocks, top_n))
            decision = inline_candidates(profile.function_instr_estimates())
            inline.append(selection_agreement(decision, ref_inline))
            layout.append(layout_agreement(est_blocks, ref_blocks))
            convergence.append(_convergence_samples(
                batch, resolved.attribution, ref_inline, decision,
            ))
    count("runner.resolve_reused", max(len(errors) - 1, 0))
    count("fidelity.repeats", len(jaccard))
    return summarize_errors(method_key, errors), FidelityStats(
        method=method_key,
        top_n=top_n,
        jaccard=tuple(jaccard),
        rank=tuple(rank),
        inline=tuple(inline),
        layout=tuple(layout),
        convergence=tuple(convergence),
    )
