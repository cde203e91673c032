"""Unit tests for dynamic trace expansion."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.errors import ExecutionError
from repro.cpu.interpreter import run_program
from repro.cpu.trace import Trace

from tests.conftest import build_counted_loop
from tests.integration.test_pipeline_properties import programs_with_calls


def test_empty_sequence_rejected(loop_program):
    with pytest.raises(ExecutionError, match="empty"):
        Trace(loop_program, np.zeros(0, dtype=np.int32))


def test_instruction_count_conserved(loop_trace):
    sizes = loop_trace.program.tables.block_sizes
    expected = int(sizes[loop_trace.block_seq].sum())
    assert loop_trace.num_instructions == expected
    assert loop_trace.instr_block.size == expected
    assert loop_trace.addresses.size == expected


def test_block_counts_match_bincount(branchy_trace):
    manual = np.bincount(
        branchy_trace.block_seq, minlength=branchy_trace.program.num_blocks
    )
    assert (branchy_trace.block_exec_counts == manual).all()
    assert (
        branchy_trace.block_instr_counts
        == manual * branchy_trace.program.tables.block_sizes
    ).all()


def test_addresses_belong_to_claimed_blocks(branchy_trace):
    program = branchy_trace.program
    found = program.block_indices_at(branchy_trace.addresses)
    assert (found == branchy_trace.instr_block).all()


def test_occurrence_starts_monotonic(loop_trace):
    starts = loop_trace.occurrence_starts
    assert starts[0] == 0
    assert (np.diff(starts) == loop_trace.occurrence_sizes[:-1]).all()


def test_taken_flags_loop():
    program = build_counted_loop(iterations=10)
    trace = Trace(program, run_program(program).block_seq)
    latch = program.block("main.latch").index
    latch_occ = trace.block_seq == latch
    taken = trace.occurrence_taken[latch_occ]
    # The back edge is taken on every iteration except the last.
    assert taken.sum() == 9
    assert not taken[-1]


def test_taken_branch_tables_consistent(branchy_trace):
    positions = branchy_trace.taken_positions
    assert (np.diff(positions) > 0).all()
    assert branchy_trace.taken_mask.sum() == positions.size
    assert branchy_trace.taken_sources.size == positions.size
    assert branchy_trace.taken_targets.size == positions.size
    # Sources are the addresses at the recorded positions.
    assert (
        branchy_trace.taken_sources == branchy_trace.addresses[positions]
    ).all()


def test_taken_targets_are_next_block_starts(branchy_trace):
    program = branchy_trace.program
    starts = program.tables.block_start_addr
    occ_idx = np.flatnonzero(branchy_trace.occurrence_taken)
    expected = starts[branchy_trace.block_seq[occ_idx + 1]]
    assert (branchy_trace.taken_targets == expected).all()


def test_final_occurrence_never_taken(loop_trace):
    assert not loop_trace.occurrence_taken[-1]


def test_cumulative_event_arrays(branchy_trace):
    assert branchy_trace.cumulative_uops[-1] == branchy_trace.uops.sum()
    assert (
        branchy_trace.cumulative_taken[-1]
        == branchy_trace.num_taken_branches
    )
    assert (np.diff(branchy_trace.cumulative_uops) >= 0).all()


def test_fall_blocks_do_not_record_taken():
    program = build_counted_loop(iterations=5)
    trace = Trace(program, run_program(program).block_seq)
    head = program.block("main.head").index  # FALL block
    head_last = trace.occurrence_starts[trace.block_seq == head] \
        + program.tables.block_sizes[head] - 1
    assert not trace.taken_mask[head_last].any()


def test_instructions_per_taken_branch(kernel_traces):
    # Section 2.3: enterprise-like code runs ~6-12 instructions per taken
    # branch; all four kernels should be in a sane 3-25 band.
    for name, trace in kernel_traces.items():
        ratio = trace.instructions_per_taken_branch()
        assert 3.0 <= ratio <= 25.0, f"{name}: ratio {ratio}"


def test_latency_classes_and_uops_match_pool(loop_trace):
    tables = loop_trace.program.tables
    assert (
        loop_trace.latency_classes
        == tables.pool_latclass[loop_trace._pool_index]
    ).all()
    assert (loop_trace.uops >= 1).all()


def _assert_point_lookups_exact(trace):
    idx = np.arange(trace.num_instructions)
    np.testing.assert_array_equal(trace.blocks_at(idx), trace.instr_block)
    np.testing.assert_array_equal(trace.addresses_at(idx), trace.addresses)
    ends = idx[[0, -1]]
    np.testing.assert_array_equal(trace.blocks_at(ends),
                                  trace.block_seq[[0, -1]])
    assert trace.occurrence_index.dtype == np.int32


@given(programs_with_calls())
@settings(max_examples=25, deadline=None)
def test_point_lookups_match_per_instruction_arrays(program):
    """Every instruction, first and last included, resolves through the
    occurrence index to the per-instruction arrays' block and address."""
    _assert_point_lookups_exact(Trace(program, run_program(program).block_seq))


def test_point_lookups_on_campaign_workloads(campaign_traces):
    for trace in campaign_traces.values():
        _assert_point_lookups_exact(trace)
