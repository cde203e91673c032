"""Unit tests for the model profile consumers (inlining, layout)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fidelity.decisions import (
    HOT_COVERAGE,
    INLINE_SHARE_THRESHOLD,
    LayoutReference,
    inline_candidates,
    layout_agreement,
    layout_hot_blocks,
    selection_agreement,
)


def test_inline_candidates_thresholds_on_share():
    counts = np.array([994.0, 5.0, 1.0])
    # 5/1000 = exactly the threshold -> candidate; 1/1000 is below it.
    assert INLINE_SHARE_THRESHOLD == 0.005
    assert inline_candidates(counts) == frozenset({0, 1})


def test_inline_candidates_empty_profile():
    assert inline_candidates(np.zeros(4)) == frozenset()


def test_layout_hot_blocks_smallest_covering_prefix():
    counts = np.array([50.0, 30.0, 15.0, 5.0])
    # Hottest-first cumulative shares: 0.50, 0.80, 0.95 -> three blocks
    # reach the 0.9 target.
    assert HOT_COVERAGE == 0.9
    assert layout_hot_blocks(counts) == frozenset({0, 1, 2})


def test_layout_hot_blocks_strips_zero_counts():
    counts = np.array([10.0, 0.0, 0.0])
    assert layout_hot_blocks(counts) == frozenset({0})
    assert layout_hot_blocks(np.zeros(3)) == frozenset()


def test_selection_agreement_jaccard():
    assert selection_agreement(frozenset(), frozenset()) == 1.0
    assert selection_agreement(frozenset({1, 2}), frozenset({2, 3})) == \
        pytest.approx(1 / 3)
    assert selection_agreement(frozenset({1}), frozenset({2})) == 0.0


def test_layout_agreement_identical_profiles():
    counts = np.array([50.0, 30.0, 15.0, 5.0])
    assert layout_agreement(counts, counts) == 1.0


def test_layout_agreement_counts_misclassified_blocks():
    ref = np.array([50.0, 30.0, 15.0, 5.0])       # hot = {0, 1, 2}
    est = np.array([50.0, 30.0, 5.0, 15.0])       # hot = {0, 1, 3}
    # Universe is all four blocks; 2 and 3 flip classification.
    assert layout_agreement(est, ref) == pytest.approx(0.5)


def test_layout_agreement_empty_universe():
    assert layout_agreement(np.zeros(3), np.zeros(3)) == 1.0


_profiles = st.lists(st.integers(min_value=0, max_value=6), min_size=1,
                     max_size=30)


@given(_profiles, _profiles)
@settings(max_examples=200, deadline=None)
def test_vector_layout_agreement_equals_per_block_count(est, ref):
    """The vector count equals checking every executed block in turn."""
    size = max(len(est), len(ref))
    estimate = np.array(est + [0] * (size - len(est)), dtype=np.float64)
    reference = np.array(ref + [0] * (size - len(ref)), dtype=np.float64)
    universe = np.flatnonzero((estimate > 0) | (reference > 0))
    est_hot = layout_hot_blocks(estimate)
    ref_hot = layout_hot_blocks(reference)
    same = sum(1 for b in universe.tolist()
               if (b in est_hot) == (b in ref_hot))
    expected = same / universe.size if universe.size else 1.0
    assert LayoutReference(reference).agreement(estimate) == expected
    assert layout_agreement(estimate, reference) == expected
