"""Plain sample attribution: each sample credits its period to the block
containing the reported address.

This is what mainstream profilers do (Section 3.1): the sample's entire
period-worth of instructions is attributed to the block the reported IP falls
in; tools then average across the block's instructions, which the per-block
error metric already reflects.
"""

from __future__ import annotations

import numpy as np

from repro.obs import count, span
from repro.pmu.sampler import SampleBatch
from repro.core.profile import Profile


def block_of_samples(batch: SampleBatch) -> np.ndarray:
    """Block index containing each reported sample address (int64).

    Implemented through the trace's per-instruction block table, which is
    exactly the address-to-block mapping a profiler performs against the
    binary's symbol information.
    """
    return batch.execution.trace.blocks_at(batch.reported_idx).astype(np.int64)


def credit_blocks(blocks: np.ndarray, num_blocks: int,
                  period: float) -> np.ndarray:
    """Per-block estimates crediting ``period`` to each sample's block.

    ``blocks`` is a per-sample step (:func:`block_of_samples` or
    :func:`~repro.core.ip_fix.corrected_blocks`).  Samples are credited
    in order, so crediting the first ``m`` entries equals attributing the
    batch's first ``m`` samples, bit for bit.
    """
    est = np.zeros(num_blocks, dtype=np.float64)
    np.add.at(est, blocks, period)
    return est


def attribute_plain(batch: SampleBatch, method: str = "plain") -> Profile:
    """Build a profile by crediting each sample's nominal period to its
    block (tools attribute the period they programmed, not the randomized
    per-sample reload value)."""
    program = batch.execution.program
    with span("attribute", method=method, samples=batch.num_samples):
        est = credit_blocks(block_of_samples(batch), program.num_blocks,
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
        },
    )
