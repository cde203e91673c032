"""Unit tests for program layout, validation, and lookup tables."""

import numpy as np
import pytest

import dataclasses

from repro.cpu.interpreter import run_program
from repro.errors import ProgramError
from repro.isa.builder import ProgramBuilder
from repro.isa.function import Function
from repro.isa.program import (
    BASE_ADDRESS, FUNCTION_ALIGNMENT, Program, StaticTables,
)

from tests.conftest import build_call_pair, build_counted_loop


def test_layout_assigns_dense_block_indices(loop_program):
    indices = [b.index for b in loop_program.blocks]
    assert indices == list(range(loop_program.num_blocks))


def test_layout_addresses_ascending(loop_program):
    tables = loop_program.tables
    assert (np.diff(tables.block_start_addr) > 0).all()
    assert (tables.block_end_addr > tables.block_start_addr).all()
    assert tables.block_start_addr[0] == BASE_ADDRESS


def test_function_alignment():
    program = build_call_pair()
    helper = program.function("helper")
    assert helper.entry.start_address % FUNCTION_ALIGNMENT == 0


def test_pool_sizes_consistent(loop_program):
    tables = loop_program.tables
    assert tables.pool_addr.size == loop_program.static_instruction_count
    assert tables.block_sizes.sum() == tables.pool_addr.size


def test_block_index_at_roundtrip(loop_program):
    for block in loop_program.blocks:
        for instr in block.instructions:
            assert loop_program.block_index_at(instr.address) == block.index


def test_block_index_at_gap_raises():
    program = build_call_pair()
    main_end = int(program.tables.block_end_addr[
        program.block("main.exit").index
    ])
    helper_start = program.function("helper").entry.start_address
    if helper_start > main_end:  # there is an alignment gap
        with pytest.raises(ProgramError, match="no block"):
            program.block_index_at(main_end)
    with pytest.raises(ProgramError, match="no block"):
        program.block_index_at(BASE_ADDRESS - 4)


def test_block_indices_at_vectorized(loop_program):
    tables = loop_program.tables
    found = loop_program.block_indices_at(tables.block_start_addr)
    assert (found == np.arange(loop_program.num_blocks)).all()
    bad = loop_program.block_indices_at(np.asarray([0, BASE_ADDRESS - 4]))
    assert (bad == -1).all()


def test_fall_next_and_taken_target(loop_program):
    tables = loop_program.tables
    head = loop_program.block("main.head").index
    latch = loop_program.block("main.latch").index
    exit_ = loop_program.block("main.exit").index
    assert tables.fall_next[head] == latch       # FALL block
    assert tables.taken_target[latch] == head    # loop back edge
    assert tables.fall_next[latch] == exit_      # not-taken successor
    assert tables.taken_target[exit_] == -1      # HALT has no target


def test_duplicate_function_rejected():
    b = ProgramBuilder("dup")
    b.function("main")
    with pytest.raises(ProgramError, match="duplicate"):
        b.function("main")


def test_unknown_branch_target_rejected():
    b = ProgramBuilder("bad")
    f = b.function("main")
    f.block("entry")
    f.jmp("nowhere")
    with pytest.raises(ProgramError, match="unknown target"):
        b.build()


def test_cross_function_branch_rejected():
    b = ProgramBuilder("bad")
    f = b.function("main")
    f.block("entry")
    f._emit_cross = None  # readability only
    g = b.function("other")
    g.block("entry")
    g.ret()
    # main jumps into other's entry: must be rejected.
    from repro.isa.instruction import Instruction
    from repro.isa.opcodes import Opcode
    f._current.instructions.append(
        Instruction(Opcode.JMP, target="other.entry")
    )
    with pytest.raises(ProgramError, match="another function"):
        b.build()


def test_cond_branch_to_fallthrough_rejected():
    b = ProgramBuilder("bad")
    f = b.function("main")
    f.block("entry")
    f.bnei(0, 0, "next")
    f.block("next")
    f.halt()
    with pytest.raises(ProgramError, match="equals its fall-through"):
        b.build()


def test_unknown_callee_rejected():
    b = ProgramBuilder("bad")
    f = b.function("main")
    f.block("entry")
    f.call("ghost")
    f.block("after")
    f.halt()
    with pytest.raises(ProgramError, match="unknown callee"):
        b.build()


def test_unknown_indirect_callee_rejected():
    b = ProgramBuilder("bad")
    f = b.function("main")
    f.block("entry")
    f.icall(0, ["ghost"])
    f.block("after")
    f.halt()
    with pytest.raises(ProgramError, match="unknown indirect callee"):
        b.build()


def test_finalize_idempotent():
    program = build_counted_loop()
    addr_before = program.tables.pool_addr.copy()
    program.finalize()
    assert (program.tables.pool_addr == addr_before).all()


def test_queries_require_finalization():
    from repro.isa.program import Program
    program = Program("p")
    with pytest.raises(ProgramError, match="not finalized"):
        program.tables


def test_function_lookup(loop_program):
    assert loop_program.function("main").name == "main"
    with pytest.raises(ProgramError, match="no function"):
        loop_program.function("ghost")
    assert loop_program.function_id("main") == 0


def test_duplicate_function_rejected():
    mains = []
    for _ in range(2):
        f = ProgramBuilder("p").function("main")
        f.block("entry")
        f.halt()
        mains.append(f.function)
    with pytest.raises(ProgramError, match="duplicate function 'main'"):
        Program("p", mains).finalize()


# -- deriving a program with new operands --------------------------------------


def _main(iterations=20, latch="latch", test="bnei", target="head",
          spare=False) -> Function:
    """``build_call_pair``'s ``main`` alone, with one thing changed."""
    f = ProgramBuilder("call_pair").function("main")
    f.block("entry")
    f.li(0, iterations)
    f.block("head")
    f.call("helper")
    f.block(latch)
    f.subi(0, 0, 1)
    getattr(f, test)(0, 0, target)
    f.block("exit")
    f.halt()
    if spare:
        f.block("spare")
        f.halt()
    return f.function


def test_derive_with_new_operands_equals_a_full_finalize():
    pilot = build_call_pair(iterations=20)
    derived = pilot.derive(_main(iterations=7))
    fresh = Program("call_pair", [_main(iterations=7), pilot.function("helper")],
                    entry="main").finalize()
    assert derived.tables is pilot.tables           # no second layout
    for field in dataclasses.fields(StaticTables):
        assert np.array_equal(getattr(derived.tables, field.name),
                              getattr(fresh.tables, field.name)), field.name
    assert [b.label for b in derived.blocks] == [b.label for b in fresh.blocks]
    assert [b.index for b in derived.blocks] == list(range(fresh.num_blocks))
    assert [i.address for b in derived.blocks for i in b.instructions] \
        == [i.address for b in fresh.blocks for i in b.instructions]
    assert derived.block("main.entry") is derived.function("main").entry
    assert np.array_equal(run_program(derived).block_seq,
                          run_program(fresh).block_seq)
    # The pilot keeps its own main and still runs 20 iterations.
    assert pilot.function("main").entry.instructions[0].imm == 20
    assert pilot.block("main.entry") is pilot.function("main").entry
    assert run_program(pilot).block_seq.size \
        > run_program(derived).block_seq.size


@pytest.mark.parametrize("change", [
    {"latch": "tail"},          # a label
    {"test": "blti"},           # an opcode
    {"spare": True},            # the number of blocks
    {"target": "entry"},        # a branch target
])
def test_derive_refuses_more_than_new_operands(change):
    pilot = build_call_pair(iterations=20)
    with pytest.raises(ProgramError):
        pilot.derive(_main(**change))


def test_derive_needs_a_function_of_the_same_name():
    pilot = build_call_pair()
    stranger = ProgramBuilder("p").function("stranger")
    stranger.block("entry")
    stranger.halt()
    with pytest.raises(ProgramError, match="no function named 'stranger'"):
        pilot.derive(stranger.function)
