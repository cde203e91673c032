"""Hot-block ordering fidelity: does the profile rank hot code correctly?

Two complementary scores over the top-N hottest blocks:

- :func:`jaccard_at_n` — *membership*: how much of the true top-N does the
  estimated top-N recover (Jaccard similarity of the two sets)?
- :func:`weighted_rank_agreement` — *ordering*: among the true top-N
  blocks, are pairs ordered the same way by the estimate, weighting each
  pair by how far apart the reference says they are (a weighted Kendall
  agreement)? Mis-ordering two near-equal blocks costs almost nothing;
  swapping the #1 and #10 block costs a lot — mirroring the PGO
  consumer's exposure.

Both are in [0, 1] with 1.0 = perfect. Ties in the estimate count half
in the rank score (the consumer would pick arbitrarily).
"""

from __future__ import annotations

import numpy as np

#: Default N for the top-N hot-block scores.
TOP_N_DEFAULT = 10


def top_n_blocks(counts: np.ndarray, n: int) -> np.ndarray:
    """Indices of the ``n`` largest strictly-positive entries.

    Deterministic: ties break toward the lower index (stable sort), so the
    selection is a pure function of the counts.
    """
    counts = np.asarray(counts, dtype=np.float64)
    order = np.argsort(-counts, kind="stable")[:n]
    return order[counts[order] > 0]


class TopNReference:
    """The reference side of both top-N scores, computed once.

    Every seeded repeat of a cell is scored against the same reference,
    so :func:`~repro.fidelity.evaluate.evaluate_fidelity` builds this once
    per cell: the reference's top-N set, and the weight and direction of
    every pair among those blocks.
    """

    def __init__(self, reference: np.ndarray, n: int) -> None:
        reference = np.asarray(reference, dtype=np.float64)
        self.n = n
        self.top = top_n_blocks(reference, n)
        self._top_set = set(self.top.tolist())
        ref_v = reference[self.top]
        dref = np.subtract.outer(ref_v, ref_v)
        self._upper = np.triu_indices(self.top.size, k=1)
        self._weights = np.abs(dref[self._upper])
        self._total = float(self._weights.sum())
        self._direction = np.sign(dref[self._upper])

    def jaccard(self, estimate: np.ndarray) -> float:
        """:func:`jaccard_at_n` of ``estimate`` against this reference."""
        est = set(top_n_blocks(estimate, self.n).tolist())
        union = est | self._top_set
        if not union:
            return 1.0
        return len(est & self._top_set) / len(union)

    def rank_agreement(self, estimate: np.ndarray) -> float:
        """:func:`weighted_rank_agreement` of ``estimate`` against this
        reference."""
        if self.top.size < 2 or self._total <= 0:
            return 1.0
        est_v = np.asarray(estimate, dtype=np.float64)[self.top]
        dest = np.subtract.outer(est_v, est_v)[self._upper]
        agree = np.sign(dest) == self._direction
        tied = dest == 0
        score = self._weights[agree].sum() \
            + 0.5 * self._weights[tied & ~agree].sum()
        return float(score / self._total)


def jaccard_at_n(estimate: np.ndarray, reference: np.ndarray, n: int) -> float:
    """Jaccard similarity of the estimated and true top-``n`` block sets."""
    return TopNReference(reference, n).jaccard(estimate)


def weighted_rank_agreement(
    estimate: np.ndarray, reference: np.ndarray, n: int
) -> float:
    """Weighted pairwise ordering agreement over the true top-``n`` blocks.

    For every pair of reference-top-``n`` blocks, the pair's weight is the
    reference count gap; the score is the weight fraction of pairs the
    estimate orders the same way (estimate ties score half). 1.0 when
    fewer than two blocks are hot or all pairs are reference-tied.
    """
    return TopNReference(reference, n).rank_agreement(estimate)
