"""The LBR-based IP+1 offset fix (Table 3, "distribution fix plus IP+1
offset fix"; recommended to hardware designers in Section 6.2).

Precise capture reports the instruction *after* the event ("IP+1"). For
samples landing mid-block this only shifts attribution within the block, but
when the trigger was the last instruction of a block the sample is charged to
the *next* block — significant for the short blocks enterprise code is made
of. The fix recovers the triggering instruction's block using only what a
real tool has: the reported address and the top LBR entry captured with the
sample.

Walk-back rules for a reported address ``a`` in block ``b``:

* ``a`` is not the first address of ``b`` → the trigger was the previous
  instruction of ``b``; attribution unchanged (still ``b``).
* ``a`` starts ``b`` and the top LBR entry's target equals ``a`` → control
  entered ``b`` through that taken branch, so the trigger was the branch:
  attribute to the block containing the LBR source address.
* ``a`` starts ``b`` and the top LBR target differs → control fell through
  into ``b``, so the trigger was the last instruction of the preceding block
  in address order: attribute to block ``b - 1``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AnalysisError
from repro.obs import count, span
from repro.pmu.sampler import SampleBatch
from repro.core.attribution import credit_blocks
from repro.core.profile import Profile


def corrected_blocks(batch: SampleBatch) -> np.ndarray:
    """Per-sample block indices after the IP+1 offset fix (int64)."""
    if batch.lbr_ranges is None:
        raise AnalysisError("IP+1 fix requires a batch collected with LBRs")
    trace = batch.execution.trace
    program = batch.execution.program
    tables = program.tables

    blocks = trace.blocks_at(batch.reported_idx).astype(np.int64)
    addrs = trace.addresses_at(batch.reported_idx)
    at_start = addrs == tables.block_start_addr[blocks]

    start, end = batch.lbr_ranges
    has_top = end > start
    top_idx = np.maximum(end - 1, 0)
    top_tgt = trace.taken_targets_at(top_idx)
    top_src = trace.taken_sources_at(top_idx)

    via_branch = at_start & has_top & (top_tgt == addrs)
    via_fallthrough = at_start & ~via_branch

    corrected = blocks.copy()
    if via_branch.any():
        corrected[via_branch] = program.block_indices_at(top_src[via_branch])
    if via_fallthrough.any():
        corrected[via_fallthrough] = np.maximum(
            blocks[via_fallthrough] - 1, 0
        )
    count("attribution.ip_corrected",
          int(via_branch.sum()) + int(via_fallthrough.sum()))
    return corrected


def attribute_with_ip_fix(batch: SampleBatch, method: str = "ip_fix") -> Profile:
    """Build a profile using the corrected (walked-back) block per sample."""
    program = batch.execution.program
    with span("attribute", method=method, samples=batch.num_samples):
        est = credit_blocks(corrected_blocks(batch), program.num_blocks,
                            float(batch.nominal_period))
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
            "ip_fix": True,
        },
    )
