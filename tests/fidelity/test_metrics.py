"""Unit tests for the hot-block ordering fidelity metrics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fidelity.metrics import (
    TOP_N_DEFAULT,
    TopNReference,
    jaccard_at_n,
    top_n_blocks,
    weighted_rank_agreement,
)


def test_top_n_selects_largest_positive():
    counts = np.array([0.0, 5.0, 3.0, 0.0, 9.0])
    assert top_n_blocks(counts, 2).tolist() == [4, 1]
    # Zero entries never make the cut, even when n exceeds the hot count.
    assert top_n_blocks(counts, 10).tolist() == [4, 1, 2]


def test_top_n_ties_break_toward_lower_index():
    counts = np.array([2.0, 7.0, 7.0, 7.0])
    assert top_n_blocks(counts, 2).tolist() == [1, 2]


def test_jaccard_perfect_and_disjoint():
    ref = np.array([9.0, 8.0, 0.0, 0.0])
    assert jaccard_at_n(ref, ref, 2) == 1.0
    est = np.array([0.0, 0.0, 8.0, 9.0])
    assert jaccard_at_n(est, ref, 2) == 0.0


def test_jaccard_partial_overlap():
    ref = np.array([9.0, 8.0, 7.0, 0.0])
    est = np.array([9.0, 8.0, 0.0, 7.0])
    # Top-3 sets {0,1,2} vs {0,1,3}: intersection 2, union 4.
    assert jaccard_at_n(est, ref, 3) == pytest.approx(0.5)


def test_jaccard_both_empty_is_perfect():
    zero = np.zeros(4)
    assert jaccard_at_n(zero, zero, TOP_N_DEFAULT) == 1.0


def test_rank_agreement_perfect_order():
    ref = np.array([10.0, 7.0, 3.0, 1.0])
    assert weighted_rank_agreement(ref, ref, 4) == 1.0
    # Any positive rescaling preserves ordering, hence the score.
    assert weighted_rank_agreement(ref * 0.01, ref, 4) == 1.0


def test_rank_agreement_full_reversal_scores_zero():
    ref = np.array([10.0, 7.0, 3.0, 1.0])
    est = np.array([1.0, 3.0, 7.0, 10.0])
    assert weighted_rank_agreement(est, ref, 4) == 0.0


def test_rank_agreement_weights_by_reference_gap():
    """Swapping a near-tied pair must cost less than swapping a far pair."""
    ref = np.array([100.0, 99.0, 10.0])
    near_swap = np.array([99.0, 100.0, 10.0])          # swaps the 100/99 pair
    far_swap = np.array([10.0, 99.0, 100.0])           # swaps the 100/10 pair
    near = weighted_rank_agreement(near_swap, ref, 3)
    far = weighted_rank_agreement(far_swap, ref, 3)
    assert near > far


def test_rank_agreement_estimate_ties_score_half():
    ref = np.array([10.0, 5.0])
    est = np.array([3.0, 3.0])
    assert weighted_rank_agreement(est, ref, 2) == pytest.approx(0.5)


def test_rank_agreement_degenerate_cases():
    assert weighted_rank_agreement(np.zeros(3), np.zeros(3), 3) == 1.0
    single = np.array([0.0, 4.0, 0.0])
    assert weighted_rank_agreement(single, single, 3) == 1.0
    # All reference-tied pairs: no weight, perfect by definition.
    tied = np.array([5.0, 5.0, 5.0])
    assert weighted_rank_agreement(np.array([1.0, 2.0, 3.0]), tied, 3) == 1.0


def _jaccard_oracle(estimate, reference, n):
    est = set(top_n_blocks(estimate, n).tolist())
    ref = set(top_n_blocks(reference, n).tolist())
    union = est | ref
    return 1.0 if not union else len(est & ref) / len(union)


def _rank_oracle(estimate, reference, n):
    top = top_n_blocks(reference, n)
    if top.size < 2:
        return 1.0
    dref = np.subtract.outer(reference[top], reference[top])
    dest = np.subtract.outer(estimate[top], estimate[top])
    upper = np.triu_indices(top.size, k=1)
    weights = np.abs(dref[upper])
    total = float(weights.sum())
    if total <= 0:
        return 1.0
    agree = np.sign(dest[upper]) == np.sign(dref[upper])
    tied = dest[upper] == 0
    score = weights[agree].sum() + 0.5 * weights[tied & ~agree].sum()
    return float(score / total)


_profiles = st.lists(st.integers(min_value=0, max_value=6), min_size=1,
                     max_size=30)


@given(_profiles, _profiles, st.integers(min_value=1, max_value=12))
@settings(max_examples=200, deadline=None)
def test_reference_side_scores_equal_per_call_scores(est, ref, n):
    """One TopNReference scores every estimate exactly as recomputing the
    reference per call does (ties and zero counts included)."""
    size = max(len(est), len(ref))
    estimate = np.array(est + [0] * (size - len(est)), dtype=np.float64)
    reference = np.array(ref + [0] * (size - len(ref)), dtype=np.float64)
    scorer = TopNReference(reference, n)
    assert scorer.jaccard(estimate) == _jaccard_oracle(estimate, reference, n)
    assert scorer.rank_agreement(estimate) \
        == _rank_oracle(estimate, reference, n)
