"""Unit tests for the block-compiling interpreter."""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.isa.builder import NUM_REGISTERS, ProgramBuilder
from repro.cpu.interpreter import compile_block, run_program

from tests.conftest import build_branchy, build_call_pair, build_counted_loop


def _run_single_block(emit):
    """Build main.entry with ``emit(f)`` + HALT, run, return registers."""
    b = ProgramBuilder("t")
    f = b.function("main")
    f.block("entry")
    emit(f)
    f.halt()
    return run_program(b.build()).registers


def test_arithmetic_semantics():
    regs = _run_single_block(lambda f: (
        f.li(0, 10), f.li(1, 3),
        f.add(2, 0, 1),       # 13
        f.sub(3, 0, 1),       # 7
        f.mul(4, 0, 1),       # 30
        f.div(5, 0, 1),       # 3
        f.modi(6, 0, 3),      # 1
        f.and_(7, 0, 1),      # 2
        f.or_(8, 0, 1),       # 11
        f.xor(9, 0, 1),       # 9
        f.shl(10, 1, 2),      # 12
        f.shr(11, 0, 1),      # 5
        f.addi(12, 0, -4),    # 6
        f.subi(13, 0, 4),     # 6
        f.mov(14, 0),         # 10
    ))
    assert regs[2:15] == [13, 7, 30, 3, 1, 2, 11, 9, 12, 5, 6, 6, 10]


def test_divide_by_zero_yields_zero():
    regs = _run_single_block(lambda f: (
        f.li(0, 10), f.li(1, 0), f.div(2, 0, 1)
    ))
    assert regs[2] == 0


def test_loads_and_stores():
    b = ProgramBuilder("t", data=np.asarray([5, 6, 7, 8], dtype=np.int64))
    f = b.function("main")
    f.block("entry")
    f.li(0, 1)
    f.load(1, 0)          # data[1] = 6
    f.loadl(2, 0, 1)      # data[2] = 7
    f.loadm(3, 0, 2)      # data[3] = 8
    f.load(4, 0, 7)       # data[(1+7) % 4] = data[0] = 5
    f.store(0, 3, 1)      # data[2] <- 8
    f.load(5, 0, 1)       # data[2] = 8 now
    f.halt()
    result = run_program(b.build())
    assert result.registers[1:6] == [6, 7, 8, 5, 8]
    assert result.data[2] == 8


def test_loop_iteration_count():
    program = build_counted_loop(iterations=37, body_pad=2)
    result = run_program(program)
    head = program.block("main.head").index
    assert int((result.block_seq == head).sum()) == 37


def test_call_and_return_sequence():
    program = build_call_pair(iterations=5)
    result = run_program(program)
    helper_body = program.function("helper").entry.index
    assert int((result.block_seq == helper_body).sum()) == 5
    # Execution starts at the entry function and ends at the HALT block.
    assert result.block_seq[0] == program.function("main").entry.index
    assert result.block_seq[-1] == program.block("main.exit").index


def test_data_driven_branches():
    program = build_branchy(iterations=16, seed=3)
    result = run_program(program)
    even = program.block("main.even").index
    odd = program.block("main.odd").index
    counts = np.bincount(result.block_seq, minlength=program.num_blocks)
    assert counts[even] + counts[odd] == 16
    data = program.data[:16]
    assert counts[odd] == int((data != 0).sum())


def test_indirect_call_dispatch():
    b = ProgramBuilder("t", data=np.asarray([0, 1, 2, 0, 1], dtype=np.int64))
    f = b.function("main")
    f.block("entry")
    f.li(0, 5)
    f.li(1, 0)
    f.block("head")
    f.load(2, 1)
    f.icall(2, ["cb0", "cb1", "cb2"])
    f.block("latch")
    f.addi(1, 1, 1)
    f.subi(0, 0, 1)
    f.bnei(0, 0, "head")
    f.block("exit")
    f.halt()
    for i in range(3):
        g = b.function(f"cb{i}")
        g.block("body")
        g.addi(10 + i, 10 + i, 1)
        g.ret()
    result = run_program(b.build())
    assert result.registers[10:13] == [2, 2, 1]


def test_nested_calls():
    b = ProgramBuilder("t")
    f = b.function("main")
    f.block("entry")
    f.call("outer")
    f.block("after")
    f.halt()
    outer = b.function("outer")
    outer.block("body")
    outer.addi(1, 1, 1)
    outer.call("inner")
    outer.block("after")
    outer.addi(1, 1, 1)
    outer.ret()
    inner = b.function("inner")
    inner.block("body")
    inner.addi(2, 2, 1)
    inner.ret()
    result = run_program(b.build())
    assert result.registers[1] == 2
    assert result.registers[2] == 1


def test_ret_from_entry_halts():
    b = ProgramBuilder("t")
    f = b.function("main")
    f.block("entry")
    f.addi(0, 0, 1)
    f.ret()
    result = run_program(b.build())
    assert result.blocks_executed == 1


def test_fuel_exhaustion():
    b = ProgramBuilder("t")
    f = b.function("main")
    f.block("spin")
    f.nop()
    f.jmp("spin")
    with pytest.raises(ExecutionError, match="fuel"):
        run_program(b.build(), fuel=100)


def test_bad_register_file_rejected():
    program = build_counted_loop(iterations=1)
    with pytest.raises(ExecutionError, match="register file"):
        run_program(program, registers=[0] * 3)


def test_custom_initial_registers():
    b = ProgramBuilder("t")
    f = b.function("main")
    f.block("entry")
    f.addi(1, 0, 5)
    f.halt()
    regs = [0] * NUM_REGISTERS
    regs[0] = 37
    result = run_program(b.build(), registers=regs)
    assert result.registers[1] == 42


def test_program_data_not_mutated():
    data = np.asarray([1, 2, 3], dtype=np.int64)
    b = ProgramBuilder("t", data=data)
    f = b.function("main")
    f.block("entry")
    f.li(0, 0)
    f.li(1, 99)
    f.store(0, 1)
    f.halt()
    program = b.build()
    result = run_program(program)
    assert result.data[0] == 99
    assert program.data[0] == 1  # the program's copy is untouched


def test_deterministic_across_runs():
    program = build_branchy(iterations=32, seed=11)
    a = run_program(program)
    b = run_program(program)
    assert (a.block_seq == b.block_seq).all()


# -- the step memo -------------------------------------------------------------


def _dispatch(callees: list[str], data_len: int = 4):
    """main loads data[(r1 + 3) % data_len] and dispatches on it through
    one ICALL over ``callees``; callee ``cb<i>`` sets r(10 + i)."""
    b = ProgramBuilder("t", data=np.arange(data_len, dtype=np.int64))
    f = b.function("main")
    f.block("entry")
    f.li(1, 1)
    f.block("head")
    f.load(0, 1, 3)
    f.icall(0, callees)
    f.block("exit")
    f.halt()
    for i in range(3):
        g = b.function(f"cb{i}")
        g.block("body")
        g.li(10 + i, 1)
        g.ret()
    return b.build()


def _head_step(program):
    dlen = int(program.data.size)
    return compile_block(program.block("main.head"), program, dlen)


def test_equal_blocks_share_one_compiled_step():
    assert _head_step(_dispatch(["cb0", "cb1"])) \
        is _head_step(_dispatch(["cb0", "cb1"]))


def test_step_memo_keeps_icall_tables_apart():
    """Both heads compile to the same source; only their tables differ."""
    forward = _dispatch(["cb0", "cb1"])
    backward = _dispatch(["cb1", "cb0"])
    assert _head_step(forward) is not _head_step(backward)
    regs = [0] * NUM_REGISTERS
    regs[1] = 1                     # selector data[0] == 0
    assert _head_step(forward)(regs, [0, 1, 2, 3]) \
        == forward.function("cb0").entry.index
    assert _head_step(backward)(regs, [0, 1, 2, 3]) \
        == backward.function("cb1").entry.index
    assert run_program(forward).registers[10:12] == [1, 0]
    assert run_program(backward).registers[10:12] == [0, 1]


def test_step_memo_keeps_data_lengths_apart():
    """(r1 + 3) % 4 reads cell 0 and (r1 + 3) % 5 cell 4: the data length
    is part of the compiled step."""
    short = _dispatch(["cb0", "cb1", "cb2"], data_len=4)
    long = _dispatch(["cb0", "cb1", "cb2"], data_len=5)
    assert _head_step(short) is not _head_step(long)
    assert run_program(short).registers[10:13] == [1, 0, 0]    # 0 % 3
    assert run_program(long).registers[10:13] == [0, 1, 0]     # 4 % 3
