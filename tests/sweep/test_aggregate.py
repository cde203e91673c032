"""Unit tests for bootstrap aggregation and curves."""

import numpy as np
import pytest

from repro.sweep import (
    bootstrap_ci,
    period_sensitivity,
    seed_convergence,
    summarize,
)
from repro.sweep import aggregate
from repro.sweep.aggregate import (
    BOOTSTRAP_RESAMPLES,
    BOOTSTRAP_SEED,
    _resample_indices,
)


class TestBootstrapCI:
    def test_deterministic_for_fixed_inputs(self):
        values = [0.1, 0.4, 0.2, 0.3, 0.25]
        assert bootstrap_ci(values) == bootstrap_ci(values)

    def test_interval_contains_mean(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0, 1, size=40).tolist()
        ci = bootstrap_ci(values)
        assert ci.lo <= ci.mean <= ci.hi
        assert ci.mean == pytest.approx(float(np.mean(values)))
        assert ci.samples == 40

    def test_single_value_is_degenerate(self):
        ci = bootstrap_ci([0.37])
        assert (ci.mean, ci.lo, ci.hi) == (0.37, 0.37, 0.37)
        assert ci.half_width == 0.0

    def test_interval_narrows_with_more_samples(self):
        rng = np.random.default_rng(11)
        small = bootstrap_ci(rng.normal(0.5, 0.1, size=5).tolist())
        large = bootstrap_ci(rng.normal(0.5, 0.1, size=500).tolist())
        assert large.half_width < small.half_width

    def test_empty_values_raise(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])

    def test_memoized_interval_equals_a_fresh_draw(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 7, 75, 300):
            values = rng.normal(0.5, 0.1, size=n)
            first = bootstrap_ci(values)
            again = bootstrap_ci(values.tolist())
            # The reference: draw the index matrix afresh for this interval.
            idx = np.random.default_rng(BOOTSTRAP_SEED).integers(
                0, n, size=(BOOTSTRAP_RESAMPLES, n))
            lo, hi = np.quantile(values[idx].mean(axis=1), (0.025, 0.975))
            assert (first.lo, first.hi) == (float(lo), float(hi)), n
            assert again == first, n

    def test_index_matrix_is_shared_read_only(self):
        shared = _resample_indices(75, BOOTSTRAP_RESAMPLES, BOOTSTRAP_SEED)
        assert _resample_indices(75, BOOTSTRAP_RESAMPLES,
                                 BOOTSTRAP_SEED) is shared
        assert not shared.flags.writeable
        with pytest.raises(ValueError):
            shared[0, 0] = 1

    def test_index_memo_stays_within_its_byte_bound(self, monkeypatch):
        bound = 10 * BOOTSTRAP_RESAMPLES * 40
        monkeypatch.setattr(aggregate, "INDEX_MEMO_BYTES", bound)
        for n in range(2, 60):
            _resample_indices(n, BOOTSTRAP_RESAMPLES, BOOTSTRAP_SEED + 1)
        held = sum(m.nbytes for m in aggregate._index_memo.values())
        assert 0 < held <= bound


class TestCampaignAggregates:
    def test_summarize_covers_every_method_period_pair(self, tiny_result):
        rows = summarize(tiny_result)
        spec = tiny_result.spec
        assert {(r.method, r.period) for r in rows} == {
            (m, p) for m in spec.methods for p in spec.periods
        }
        # Rows follow spec method order, then ascending period.
        assert [(r.method, r.period) for r in rows] == [
            (m, p) for m in spec.methods for p in sorted(spec.periods)
        ]
        for row in rows:
            assert row.cells == 1                  # one workload, one machine
            assert row.ci.samples == spec.max_repeats
            assert 0.0 <= row.ci.lo <= row.ci.mean <= row.ci.hi

    def test_period_sensitivity_axes(self, tiny_result):
        curves = period_sensitivity(tiny_result)
        assert set(curves) == set(tiny_result.spec.methods)
        for pts in curves.values():
            assert [pt.x for pt in pts] == sorted(tiny_result.spec.periods)

    def test_seed_convergence_axes(self, tiny_result):
        curves = seed_convergence(tiny_result)
        assert set(curves) == set(tiny_result.spec.methods)
        for pts in curves.values():
            assert [pt.x for pt in pts] == sorted(
                tiny_result.spec.seed_counts
            )
            # Deeper seed pools can only use more samples.
            assert pts[-1].ci.samples > pts[0].ci.samples
