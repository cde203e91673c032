"""Decision fidelity: would a profile consumer make the same choices?

Two model consumers over our synthetic CFGs, deliberately simple and
deterministic (thresholded selections, stable tie-breaks) so agreement is
a pure function of the two profiles:

- **Inlining** (:func:`inline_candidates`): a PGO inliner marks every
  function holding at least :data:`INLINE_SHARE_THRESHOLD` of the total
  retired-instruction mass as a candidate. Fidelity is the Jaccard
  similarity of the candidate sets chosen from the sampled profile vs the
  reference.
- **Block layout** (:func:`layout_hot_blocks`): a hot/cold splitter keeps
  the smallest hot section covering :data:`HOT_COVERAGE` of the mass
  (blocks taken hottest-first). Fidelity is the fraction of ever-executed
  blocks classified the same way by both profiles.
"""

from __future__ import annotations

import numpy as np

#: A function is an inline candidate at or above this share of total mass.
INLINE_SHARE_THRESHOLD = 0.005

#: Hot-section mass coverage targeted by the layout splitter.
HOT_COVERAGE = 0.9


def inline_candidates(function_counts: np.ndarray) -> frozenset[int]:
    """Function indices holding >= the threshold share of total mass."""
    counts = np.asarray(function_counts, dtype=np.float64)
    total = float(counts.sum())
    if total <= 0:
        return frozenset()
    share = counts / total
    return frozenset(np.flatnonzero(share >= INLINE_SHARE_THRESHOLD).tolist())


def _hot_mask(counts: np.ndarray) -> np.ndarray:
    """Bool per block: in the layout splitter's hot section."""
    hot = np.zeros(counts.size, dtype=bool)
    total = float(counts.sum())
    if total <= 0:
        return hot
    order = np.argsort(-counts, kind="stable")
    ordered = counts[order]
    cum = np.cumsum(ordered)
    # Smallest prefix whose mass reaches the coverage target; strip any
    # zero-count tail that could never contribute.
    cutoff = int(np.searchsorted(cum, HOT_COVERAGE * total)) + 1
    top = order[:cutoff]
    hot[top[counts[top] > 0]] = True
    return hot


def layout_hot_blocks(block_counts: np.ndarray) -> frozenset[int]:
    """The smallest hottest-first block set covering ``HOT_COVERAGE`` mass.

    Ties break toward the lower block index (stable sort), so the split is
    deterministic. An all-zero profile yields the empty set.
    """
    counts = np.asarray(block_counts, dtype=np.float64)
    return frozenset(np.flatnonzero(_hot_mask(counts)).tolist())


def selection_agreement(estimated: frozenset[int], true: frozenset[int]) -> float:
    """Jaccard similarity of two candidate selections (both empty = 1.0)."""
    union = estimated | true
    if not union:
        return 1.0
    return len(estimated & true) / len(union)


class LayoutReference:
    """The reference side of :func:`layout_agreement`, computed once.

    Every seeded repeat of a cell is scored against the same reference,
    so :func:`~repro.fidelity.evaluate.evaluate_fidelity` builds this once
    per cell: which blocks the reference executes and which it keeps hot.
    """

    def __init__(self, reference: np.ndarray) -> None:
        counts = np.asarray(reference, dtype=np.float64)
        self._executed = counts > 0
        self._hot = _hot_mask(counts)

    def agreement(self, estimate: np.ndarray) -> float:
        """:func:`layout_agreement` of ``estimate`` against this
        reference."""
        counts = np.asarray(estimate, dtype=np.float64)
        universe = (counts > 0) | self._executed
        size = int(np.count_nonzero(universe))
        if size == 0:
            return 1.0
        same = int(np.count_nonzero(universe & (_hot_mask(counts)
                                                == self._hot)))
        return same / size


def layout_agreement(
    estimate: np.ndarray, reference: np.ndarray
) -> float:
    """Fraction of ever-executed blocks classified hot/cold identically.

    The universe is every block either profile gives mass to; 1.0 when
    neither profile has any mass.
    """
    return LayoutReference(reference).agreement(estimate)
