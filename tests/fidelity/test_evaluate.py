"""End-to-end fidelity evaluation: scoring, convergence, caching, API."""

import shutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EvaluationAborted
from repro.cpu.machine import Machine
from repro.cpu.uarch import ALL_UARCHES, get_uarch
from repro.core.cache import ArtifactCache
from repro.core.experiment import CellSpec, ExperimentConfig, Harness
from repro.core.methods import METHODS, method_available, resolve_method
from repro.core.runner import _ATTRIBUTORS, evaluate_method, run_method
from repro.fidelity import (
    FidelityStats,
    convergence_ladder,
    evaluate_fidelity,
    inline_candidates,
)
from repro.fidelity.evaluate import _convergence_samples, _prefix_estimates
from repro.obs import collecting
from repro.pmu.sampler import SampleBatch
from repro.workloads.registry import get_workload


@pytest.fixture(scope="module")
def phased_execution():
    program = get_workload("phased").build(scale=0.03)
    return Machine(get_uarch("westmere")).execute(program)


def test_convergence_ladder_shape():
    assert convergence_ladder(0) == []
    assert convergence_ladder(1) == [1]
    assert convergence_ladder(10) == [1, 2, 4, 8, 10]
    assert convergence_ladder(8) == [1, 2, 4, 8]


def test_evaluate_fidelity_scores_every_class(phased_execution):
    accuracy, stats = evaluate_fidelity(phased_execution, "classic", 2000,
                                        seeds=range(3))
    # The accuracy half is exactly what the stats-only path computes.
    assert accuracy == evaluate_method(phased_execution, "classic", 2000,
                                       seeds=range(3))
    assert isinstance(stats, FidelityStats)
    assert stats.repeats == 3
    for field in ("jaccard", "rank", "inline", "layout"):
        values = getattr(stats, field)
        assert all(0.0 <= v <= 1.0 for v in values)
    for c in stats.convergence:
        assert c is None or c >= 1


def test_evaluate_fidelity_deterministic(phased_execution):
    a = evaluate_fidelity(phased_execution, "lbr", 2000, seeds=range(2))
    b = evaluate_fidelity(phased_execution, "lbr", 2000, seeds=range(2))
    assert a == b


def test_reference_profile_scores_perfect(phased_execution):
    """A dense sampling method should approach perfect fidelity; the
    reference scored against itself must be exactly perfect."""
    from repro.instrumentation.reference import collect_reference
    from repro.fidelity.metrics import jaccard_at_n, weighted_rank_agreement
    from repro.fidelity.decisions import layout_agreement

    ref = collect_reference(phased_execution.trace)
    counts = ref.block_instr_counts.astype(np.float64)
    assert jaccard_at_n(counts, counts, 10) == 1.0
    assert weighted_rank_agreement(counts, counts, 10) == 1.0
    assert layout_agreement(counts, counts) == 1.0


def test_abort_raises_between_repeats(phased_execution):
    calls = {"n": 0}

    def abort():
        calls["n"] += 1
        return calls["n"] > 1

    with pytest.raises(EvaluationAborted, match="aborted"):
        evaluate_fidelity(phased_execution, "classic", 2000,
                          seeds=range(5), abort=abort)


def test_harness_caches_fidelity(tmp_path):
    config = ExperimentConfig(scale=0.03, repeats=2)
    spec = CellSpec("westmere", "phased", "classic", 2000)
    cache = ArtifactCache(tmp_path / "cache")

    first = Harness(config, cache=cache)
    stats, a = first.evaluate_cell(spec, fidelity_top_n=10)
    assert stats is not None and a is not None
    # Same harness: in-process memo returns the identical objects.
    assert first.evaluate_cell(spec, fidelity_top_n=10) == (stats, a)
    assert first.evaluate_cell(spec, fidelity_top_n=10).fidelity is a
    # Fresh harness over the same persistent cache: equal stats, no rerun.
    second = Harness(config, cache=cache)
    with collecting() as col:
        assert second.evaluate_cell(spec, fidelity_top_n=10) == (stats, a)
    assert col.metrics.counter("harness.cells_evaluated") == 0
    assert col.metrics.counter("harness.fidelity_evaluated") == 0


def test_harness_blank_cell_yields_none():
    config = ExperimentConfig(scale=0.03, repeats=1)
    # LBR is not available on magnycours: fidelity must blank like accuracy.
    spec = CellSpec("magnycours", "phased", "lbr", 2000)
    assert Harness(config).evaluate_cell(spec, fidelity_top_n=10) \
        == (None, None)


@pytest.mark.parametrize("method", ["classic", "pdir_fix", "lbr"])
def test_fidelity_cell_samples_like_a_stats_only_cell(tmp_path, method):
    """Plain, IP-fix and LBR attribution: asking for fidelity adds no
    sampling, and the accuracy half does not change."""
    config = ExperimentConfig(scale=0.03, repeats=3)
    spec = CellSpec("ivybridge", "phased", method, 2000)

    def evaluate(top_n):
        harness = Harness(config,
                          cache=ArtifactCache(tmp_path / f"fresh-{top_n}"))
        with collecting() as col:
            scores = harness.evaluate_cell(spec, fidelity_top_n=top_n)
        return scores, col.metrics.counter("samples.collected")

    plain, plain_samples = evaluate(None)
    fused, fused_samples = evaluate(10)
    assert plain_samples > 0
    assert fused_samples == plain_samples
    assert fused.stats == plain.stats
    assert plain.fidelity is None and fused.fidelity is not None


def _evaluated_counts(col) -> tuple[int, int, int]:
    counters = col.metrics.counters()
    return (counters.get("harness.cells_evaluated", 0),
            counters.get("harness.fidelity_evaluated", 0),
            counters.get("cache.writes", 0))


def test_half_cached_cell_evaluates_and_writes_only_the_missing_half(
        tmp_path):
    config = ExperimentConfig(scale=0.03, repeats=2)
    spec = CellSpec("westmere", "phased", "lbr", 2000)
    cold = Harness(config).evaluate_cell(spec, fidelity_top_n=10)

    # Only the stats half cached (plus the trace and reference).
    stats_only = tmp_path / "stats-only"
    Harness(config, cache=ArtifactCache(stats_only)).evaluate_cell(spec)
    with collecting() as col:
        pair = Harness(config, cache=ArtifactCache(stats_only)) \
            .evaluate_cell(spec, fidelity_top_n=10)
    assert pair == cold
    assert _evaluated_counts(col) == (0, 1, 1)

    # Only the fidelity half cached: drop every stats entry of a full run.
    fidelity_only = ArtifactCache(tmp_path / "fidelity-only")
    Harness(config, cache=fidelity_only).evaluate_cell(spec,
                                                       fidelity_top_n=10)
    shutil.rmtree(fidelity_only.store_dir / "stats")
    with collecting() as col:
        pair = Harness(config, cache=ArtifactCache(fidelity_only.root)) \
            .evaluate_cell(spec, fidelity_top_n=10)
    assert pair == cold
    assert _evaluated_counts(col) == (1, 0, 1)


def test_aborted_fidelity_cell_writes_nothing(tmp_path):
    config = ExperimentConfig(scale=0.03, repeats=3)
    spec = CellSpec("westmere", "phased", "classic", 2000)
    harness = Harness(config, cache=ArtifactCache(tmp_path))
    calls = {"n": 0}

    def abort():
        calls["n"] += 1
        return calls["n"] > 1

    with pytest.raises(EvaluationAborted):
        harness.evaluate_cell(spec, abort=abort, fidelity_top_n=10)
    assert not (harness.cache.store_dir / "stats").exists()
    assert not (harness.cache.store_dir / "fidelity").exists()
    assert harness.evaluate_cell(spec, fidelity_top_n=10) \
        == Harness(config).evaluate_cell(spec, fidelity_top_n=10)


# -- the convergence ladder vs re-attributing every prefix ----------------


def _prefix_batch(batch: SampleBatch, m: int) -> SampleBatch:
    """The batch a profiler would hold after its first ``m`` samples."""
    lbr = batch.lbr_ranges
    return SampleBatch(
        execution=batch.execution,
        config=batch.config,
        trigger_idx=batch.trigger_idx[:m],
        reported_idx=batch.reported_idx[:m],
        period_weights=batch.period_weights[:m],
        lbr_ranges=None if lbr is None else (lbr[0][:m], lbr[1][:m]),
        dropped=0,
    )


def _oracle_convergence(batch, resolved, method, ref_inline):
    """The ladder as first written: re-attribute every prefix batch."""
    attribute = _ATTRIBUTORS[resolved.attribution]
    ladder = convergence_ladder(batch.num_samples)
    matches = []
    for m in ladder:
        profile = attribute(_prefix_batch(batch, m), method=method)
        matches.append(
            inline_candidates(profile.function_instr_estimates())
            == ref_inline)
    converged_from = None
    for m, ok in zip(reversed(ladder), reversed(matches)):
        if not ok:
            break
        converged_from = m
    return converged_from


@pytest.fixture(scope="module")
def family_harness():
    return Harness(ExperimentConfig(scale=0.05, repeats=1))


@st.composite
def ladder_cases(draw):
    workload = draw(st.sampled_from(["phased", "interleaved", "memaccess"]))
    uarch = draw(st.sampled_from(ALL_UARCHES))
    method = draw(st.sampled_from(
        [m.key for m in METHODS if method_available(m.key, uarch)]))
    period = draw(st.integers(min_value=100, max_value=2000))
    seed = draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
    return workload, uarch.name, method, period, seed


@given(ladder_cases())
@settings(max_examples=30, deadline=None)
def test_ladder_cut_from_one_attribution_equals_reattribution(
        family_harness, case):
    workload, machine, method, period, seed = case
    harness = family_harness
    execution = harness.execution(machine, workload)
    resolved = resolve_method(method, execution.uarch, period)
    profile, batch = run_method(execution, method, period, rng=seed,
                                normalize=False, resolved=resolved,
                                engine=harness.engine)
    attribute = _ATTRIBUTORS[resolved.attribution]
    estimates = _prefix_estimates(batch, resolved.attribution)
    for m in convergence_ladder(batch.num_samples):
        oracle = attribute(_prefix_batch(batch, m), method=method)
        np.testing.assert_array_equal(estimates(m),
                                      oracle.block_instr_estimates)
        assert estimates(m).tobytes() \
            == oracle.block_instr_estimates.tobytes()

    reference = harness.reference(workload)
    ref_inline = inline_candidates(
        reference.function_instr_counts().astype(np.float64))
    full_inline = inline_candidates(profile.function_instr_estimates())
    assert _convergence_samples(batch, resolved.attribution, ref_inline,
                                full_inline) \
        == _oracle_convergence(batch, resolved, method, ref_inline)


def test_run_fidelity_api(tmp_path):
    from repro.api import run_fidelity

    stats = run_fidelity(
        "westmere", "memaccess", "lbr", period=1000,
        config=ExperimentConfig(scale=0.03, repeats=2),
    )
    assert isinstance(stats, FidelityStats)
    assert stats.method == "lbr"
    assert stats.repeats == 2
