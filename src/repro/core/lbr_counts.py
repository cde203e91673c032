"""Full LBR-based basic-block execution accounting (Section 3.2).

When sampling on the retired-taken-branches event, each PMI freezes a
16-entry LBR stack. Between a recorded target ``T_i`` and the next recorded
source ``S_{i+1}`` no branch was taken, so every basic block in the address
range ``[T_i, S_{i+1}]`` executed exactly once. Crediting those blocks across
all samples — and scaling by how many taken branches each sample stands for —
yields estimated block *execution* counts, which multiply out to instruction
counts. The PMI's own reported address is ignored, as in the paper.

Blocks are laid out in address order, so the blocks covered by one segment
form a contiguous index range; crediting uses a difference array, making the
whole accounting O(samples * depth + blocks).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AnalysisError
from repro.obs import count, span
from repro.pmu.sampler import SampleBatch
from repro.core.profile import Profile


@dataclass(frozen=True)
class LbrSegments:
    """The per-sample step of LBR accounting: every sample's segments,
    flattened in sample order.

    Segment ``j`` covers blocks ``first_block[j]`` through
    ``last_block[j]`` and stands for ``weights[j]`` executions of each;
    the first ``s`` samples own the first ``ends[s - 1]`` segments.
    """

    first_block: np.ndarray     # int64 per segment
    last_block: np.ndarray      # int64 per segment
    weights: np.ndarray         # float64 per segment
    ends: np.ndarray            # int64 per sample: cumulative segment count
    num_blocks: int

    def exec_counts(self, samples: int | None = None) -> np.ndarray:
        """Estimated per-block execution counts from the segments of the
        first ``samples`` samples (all by default).

        Equals accounting that prefix of the batch on its own, bit for
        bit: each sample's segments and weights do not depend on the
        samples after it.
        """
        k = self.first_block.size
        if samples is not None and samples < self.ends.size:
            k = int(self.ends[samples - 1]) if samples > 0 else 0
        if k == 0:
            return np.zeros(self.num_blocks, dtype=np.float64)
        weights = self.weights[:k]
        delta = np.zeros(self.num_blocks + 1, dtype=np.float64)
        np.add.at(delta, self.first_block[:k], weights)
        np.add.at(delta, self.last_block[:k] + 1, -weights)
        counts = np.cumsum(delta[:-1])
        # The prefix sum cancels each +w with a later -w; rounding can leave
        # residues around zero, so clamp them out.
        np.maximum(counts, 0.0, out=counts)
        return counts


def lbr_segments(batch: SampleBatch) -> LbrSegments:
    """The ⟨T_i, S_{i+1}⟩ segments of a batch's LBR stacks."""
    if batch.lbr_ranges is None:
        raise AnalysisError("LBR accounting requires a batch collected with LBRs")
    trace = batch.execution.trace
    program = batch.execution.program

    start, end = batch.lbr_ranges
    seg_counts = np.maximum(end - start - 1, 0)
    ends = np.cumsum(seg_counts)
    total_segments = int(ends[-1]) if ends.size else 0
    count("attribution.lbr_segments", total_segments)

    # Flatten all ⟨T_i, S_{i+1}⟩ segments across samples. Segment j of
    # sample s pairs entry (start+j) target with entry (start+j+1) source.
    sample_of_seg = np.repeat(
        np.arange(start.size, dtype=np.int64), seg_counts
    )
    seg_pos = np.arange(total_segments, dtype=np.int64)
    seg_pos -= np.repeat(ends - seg_counts, seg_counts)
    first_entry = start[sample_of_seg] + seg_pos

    seg_targets = trace.taken_targets_at(first_entry)
    seg_sources = trace.taken_sources_at(first_entry + 1)

    first_block = program.block_indices_at(seg_targets)
    last_block = program.block_indices_at(seg_sources)
    if (first_block < 0).any() or (last_block < 0).any():
        raise AnalysisError("LBR segment endpoint outside the program image")
    if (last_block < first_block).any():
        raise AnalysisError("LBR segment with decreasing addresses")

    # Each segment stands for one taken branch out of the sample's period;
    # weight so a sample's stack represents its full (nominal) period of
    # branches.
    weights = (
        float(batch.nominal_period)
        / seg_counts[sample_of_seg].astype(np.float64)
    )
    return LbrSegments(first_block=first_block, last_block=last_block,
                       weights=weights, ends=ends,
                       num_blocks=program.num_blocks)


def lbr_block_exec_counts(batch: SampleBatch) -> np.ndarray:
    """Estimated per-block execution counts from a batch's LBR stacks."""
    return lbr_segments(batch).exec_counts()


def attribute_lbr(batch: SampleBatch, method: str = "lbr") -> Profile:
    """Build an instruction-count profile from full LBR accounting."""
    program = batch.execution.program
    with span("attribute", method=method, samples=batch.num_samples):
        exec_counts = lbr_block_exec_counts(batch)
        est = exec_counts * program.tables.block_sizes
    count("attribution.samples", batch.num_samples)
    count("attribution.dropped_ips", batch.dropped)
    return Profile(
        program=program,
        method=method,
        block_instr_estimates=est,
        num_samples=batch.num_samples,
        metadata={
            "event": batch.config.event.name,
            "period": batch.config.period.describe(),
            "dropped": batch.dropped,
            "lbr_depth": batch.execution.uarch.lbr_depth,
        },
    )
