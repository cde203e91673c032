"""Imprecise PMI delivery: the skid and shadow model.

When a counter without precise capture overflows, the PMI is delivered a
fixed number of *cycles* later, and the sampled IP is whatever instruction is
next to retire at delivery time. Two consequences, matching Section 3.1:

* **Skid** — in smoothly-retiring code the delay translates into an offset of
  roughly ``skid_cycles * retire_width`` instructions past the trigger.
* **Shadow** — during a long-latency stall the retirement head parks on the
  stalling instruction, so PMIs landing anywhere in the stall window all
  report it; the instructions retiring in the burst right after the stall
  (its "shadow") are nearly never reported.
"""

from __future__ import annotations

import numpy as np

from repro.cpu.retirement import next_to_retire


def deliver_imprecise(
    trigger_idx: np.ndarray,
    retire_cycles: np.ndarray,
    skid_cycles: int,
    jitter_cycles: int = 0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Map overflow triggers to reported instruction indices.

    Parameters
    ----------
    trigger_idx:
        Trace indices of the instructions whose retirement overflowed the
        counter.
    retire_cycles:
        Per-instruction retirement cycles for the machine.
    skid_cycles:
        The machine's base PMI delivery latency.
    jitter_cycles:
        Width of the per-delivery latency variation; each PMI adds a uniform
        draw from ``[0, jitter_cycles)``. Zero (or a missing ``rng``) keeps
        delivery deterministic.
    rng:
        Source of the jitter draws.

    Returns
    -------
    Reported trace indices (int64), each past its trigger: the interrupt
    arrives after the overflowing instruction retired, so even a zero
    delay reports the next one, never the trigger or an instruction of
    its retirement group before it. Entries equal to
    ``len(retire_cycles)`` denote PMIs delivered after the program
    exited; callers drop them.
    """
    delivery = retire_cycles[trigger_idx] + skid_cycles
    if jitter_cycles > 0 and rng is not None:
        delivery = delivery + rng.integers(
            0, jitter_cycles, size=delivery.shape, dtype=np.int64
        )
    return np.maximum(next_to_retire(retire_cycles, delivery),
                      trigger_idx + 1)
