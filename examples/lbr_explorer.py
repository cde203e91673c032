#!/usr/bin/env python
"""LBR explorer: look inside a Last Branch Record stack.

Samples the G4Box kernel on the retired-taken-branches event, freezes one
LBR stack, prints its ⟨source, target⟩ pairs with symbolized blocks, and
shows how the fall-through segments between entries turn into basic-block
execution counts (Section 3.2 of the paper).

Usage::

    python examples/lbr_explorer.py
"""

import numpy as np

from repro import IVY_BRIDGE, Machine, get_workload
from repro.core.accuracy import profile_error
from repro.core.runner import run_method
from repro.instrumentation import collect_reference


def main() -> None:
    workload = get_workload("g4box")
    program = workload.build(scale=0.2)
    execution = Machine(IVY_BRIDGE).execute(program)
    trace = execution.trace

    # The "lbr" method: retired taken branches at the prime period 2003
    # (the next prime above 2000), each sample freezing the LBR stack.
    profile, batch = run_method(execution, "lbr", base_period=2000, rng=42)
    print(f"Collected {batch.num_samples} LBR samples from "
          f"{trace.num_taken_branches:,} taken branches "
          f"({trace.num_instructions:,} instructions).\n")

    # Dissect the first stack.
    facility = batch.lbr_facility()
    delivery = int(batch.reported_idx[0])
    stack = facility.stack_at(delivery)

    def block_label(address: int) -> str:
        return program.blocks[program.block_index_at(address)].label

    print(f"Stack frozen at trace index {delivery} "
          f"({len(stack)} entries, oldest first):")
    for i in range(len(stack)):
        src, tgt = int(stack.sources[i]), int(stack.targets[i])
        print(f"  [{i:2d}] {src:#8x} -> {tgt:#8x}   "
              f"{block_label(src):28s} -> {block_label(tgt)}")

    print("\nFall-through segments (every block inside executed once):")
    for tgt, src in stack.segments()[:8]:
        first = program.block_index_at(tgt)
        last = program.block_index_at(src)
        labels = [program.blocks[b].label for b in range(first, last + 1)]
        print(f"  [{tgt:#8x}..{src:#8x}]  " + " | ".join(labels))

    # Full accounting across all samples (the profile run_method returned).
    reference = collect_reference(trace)
    result = profile_error(profile, reference)
    print(f"\nFull LBR basic-block accounting error: {result.error:.4f} "
          "(lower is better)")
    print("Hottest blocks, estimated vs exact executions:")
    exec_counts = reference.block_exec_counts
    order = np.argsort(exec_counts)[::-1][:8]
    sizes = program.tables.block_sizes
    for b in order:
        est = profile.block_instr_estimates[b] / sizes[b]
        print(f"  {program.blocks[b].label:28s} "
              f"est {est:12,.0f}   exact {exec_counts[b]:12,}")


if __name__ == "__main__":
    main()
