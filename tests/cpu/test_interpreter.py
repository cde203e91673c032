"""Unit tests for the block-compiling interpreter.

The opcode and control-flow tests run on both drivers: the product's
:func:`~repro.cpu.interpreter.run_program` and the oracle,
:func:`repro.cpu.engine.interpret`, which shares no code with it.
"""

import dis
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu import interpreter
from repro.errors import ExecutionError
from repro.isa.block import BasicBlock, BlockKind
from repro.isa.builder import NUM_REGISTERS, ProgramBuilder
from repro.isa.function import Function
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.cpu.engine import interpret
from repro.cpu.interpreter import compile_block, run_program

from tests.conftest import build_branchy, build_call_pair, build_counted_loop


def _on_both_drivers(test):
    """Run ``test(run)`` with the product's driver, then with the oracle,
    as one test under ``test``'s own name."""
    def on_both():
        for run in (run_program, interpret):
            test(run)
    on_both.__doc__ = test.__doc__
    return on_both


def _run_single_block(run, emit):
    """Build main.entry with ``emit(f)`` + HALT, run, return registers."""
    b = ProgramBuilder("t")
    f = b.function("main")
    f.block("entry")
    emit(f)
    f.halt()
    return run(b.build()).registers


@_on_both_drivers
def test_arithmetic_semantics(run):
    regs = _run_single_block(run, lambda f: (
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


@_on_both_drivers
def test_negative_operands_floor_and_keep_sign(run):
    regs = _run_single_block(run, lambda f: (
        f.li(0, -7), f.li(1, 2), f.li(2, -3),
        f.div(3, 0, 1),       # -4: DIV floors
        f.div(4, 1, 2),       # -1
        f.modi(5, 0, 3),      # 2: MODI takes the modulus's sign
        f.modi(6, 1, -3),     # -1
        f.shr(7, 0, 1),       # -4: SHR is arithmetic
        f.shr(8, 0, 65),      # -4: the shift is imm & 63
        f.shl(9, 2, 1),       # 2**64 - 6: SHL wraps to 64 bits
        f.mul(10, 0, 1),      # 2**64 - 14: MUL wraps to 64 bits
    ))
    assert regs[3:11] == [-4, -1, 2, -1, -4, -4, (1 << 64) - 6,
                          (1 << 64) - 14]


@_on_both_drivers
def test_divide_by_zero_yields_zero(run):
    regs = _run_single_block(run, lambda f: (
        f.li(0, 10), f.li(1, 0), f.div(2, 0, 1)
    ))
    assert regs[2] == 0


@_on_both_drivers
def test_loads_and_stores(run):
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
    result = run(b.build())
    assert result.registers[1:6] == [6, 7, 8, 5, 8]
    assert result.data[2] == 8


@_on_both_drivers
def test_loop_iteration_count(run):
    program = build_counted_loop(iterations=37, body_pad=2)
    result = run(program)
    head = program.block("main.head").index
    assert int((result.block_seq == head).sum()) == 37


@_on_both_drivers
def test_call_and_return_sequence(run):
    program = build_call_pair(iterations=5)
    result = run(program)
    helper_body = program.function("helper").entry.index
    assert int((result.block_seq == helper_body).sum()) == 5
    # Execution starts at the entry function and ends at the HALT block.
    assert result.block_seq[0] == program.function("main").entry.index
    assert result.block_seq[-1] == program.block("main.exit").index


@_on_both_drivers
def test_data_driven_branches(run):
    program = build_branchy(iterations=16, seed=3)
    result = run(program)
    even = program.block("main.even").index
    odd = program.block("main.odd").index
    counts = np.bincount(result.block_seq, minlength=program.num_blocks)
    assert counts[even] + counts[odd] == 16
    data = program.data[:16]
    assert counts[odd] == int((data != 0).sum())


@_on_both_drivers
def test_indirect_call_dispatch(run):
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
    result = run(b.build())
    assert result.registers[10:13] == [2, 2, 1]


@_on_both_drivers
def test_nested_calls(run):
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
    result = run(b.build())
    assert result.registers[1] == 2
    assert result.registers[2] == 1


@_on_both_drivers
def test_ret_from_entry_halts(run):
    b = ProgramBuilder("t")
    f = b.function("main")
    f.block("entry")
    f.addi(0, 0, 1)
    f.ret()
    result = run(b.build())
    assert result.blocks_executed == 1


@_on_both_drivers
def test_fuel_exhaustion(run):
    b = ProgramBuilder("t")
    f = b.function("main")
    f.block("spin")
    f.nop()
    f.jmp("spin")
    with pytest.raises(ExecutionError, match="fuel"):
        run(b.build(), fuel=100)


@_on_both_drivers
def test_bad_register_file_rejected(run):
    program = build_counted_loop(iterations=1)
    with pytest.raises(ExecutionError, match="register file"):
        run(program, registers=[0] * 3)


@_on_both_drivers
def test_custom_initial_registers(run):
    b = ProgramBuilder("t")
    f = b.function("main")
    f.block("entry")
    f.addi(1, 0, 5)
    f.halt()
    regs = [0] * NUM_REGISTERS
    regs[0] = 37
    result = run(b.build(), registers=regs)
    assert result.registers[1] == 42


@_on_both_drivers
def test_program_data_not_mutated(run):
    data = np.asarray([1, 2, 3], dtype=np.int64)
    b = ProgramBuilder("t", data=data)
    f = b.function("main")
    f.block("entry")
    f.li(0, 0)
    f.li(1, 99)
    f.store(0, 1)
    f.halt()
    program = b.build()
    result = run(program)
    assert result.data[0] == 99
    assert program.data[0] == 1  # the program's copy is untouched


@_on_both_drivers
def test_deterministic_across_runs(run):
    program = build_branchy(iterations=32, seed=11)
    a = run(program)
    b = run(program)
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


# -- steps instantiated from shape templates -----------------------------------
#
# The oracle here compiles each block straight from its own source, with
# every operand written as a literal: the per-block code generation the shape
# templates replaced, kept verbatim. It pins the steps' bytecode; the engine
# differential (tests/cpu/test_fastengine.py) checks what they compute
# against the plain interpreter.

_U64 = 0xFFFF_FFFF_FFFF_FFFF
_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1


def _cond_expr(instr, taken: int, fall: int) -> str:
    s1 = f"r[{instr.src1}]"
    if instr.uses_immediate_compare:
        rhs = repr(instr.imm)
    else:
        rhs = f"r[{instr.src2}]"
    ops = {
        Opcode.BEQ: "==", Opcode.BEQI: "==",
        Opcode.BNE: "!=", Opcode.BNEI: "!=",
        Opcode.BLT: "<", Opcode.BLTI: "<",
        Opcode.BGE: ">=", Opcode.BGEI: ">=",
    }
    return f"return {taken} if {s1} {ops[instr.opcode]} {rhs} else {fall}"


def _semantic_lines(block, dlen: int) -> list[str]:
    lines: list[str] = []
    body = block.instructions[:-1] if block.terminator is not None \
        else block.instructions
    for ins in body:
        op = ins.opcode
        d, s1, s2, imm = ins.dst, ins.src1, ins.src2, ins.imm
        if op is Opcode.LI:
            lines.append(f"r[{d}] = {imm}")
        elif op is Opcode.MOV:
            lines.append(f"r[{d}] = r[{s1}]")
        elif op is Opcode.ADD:
            lines.append(f"r[{d}] = r[{s1}] + r[{s2}]")
        elif op is Opcode.ADDI:
            lines.append(f"r[{d}] = r[{s1}] + {imm}")
        elif op is Opcode.SUB:
            lines.append(f"r[{d}] = r[{s1}] - r[{s2}]")
        elif op is Opcode.SUBI:
            lines.append(f"r[{d}] = r[{s1}] - {imm}")
        elif op is Opcode.MUL:
            lines.append(f"r[{d}] = (r[{s1}] * r[{s2}]) & {_U64}")
        elif op is Opcode.DIV:
            lines.append(f"r[{d}] = r[{s1}] // r[{s2}] if r[{s2}] else 0")
        elif op is Opcode.AND:
            lines.append(f"r[{d}] = r[{s1}] & r[{s2}]")
        elif op is Opcode.OR:
            lines.append(f"r[{d}] = r[{s1}] | r[{s2}]")
        elif op is Opcode.XOR:
            lines.append(f"r[{d}] = r[{s1}] ^ r[{s2}]")
        elif op is Opcode.SHL:
            lines.append(f"r[{d}] = (r[{s1}] << {ins.imm % 64 if imm else 0}) & {_U64}")
        elif op is Opcode.SHR:
            lines.append(f"r[{d}] = r[{s1}] >> {ins.imm % 64 if imm else 0}")
        elif op is Opcode.MODI:
            div = imm if imm else 0
            if div:
                lines.append(f"r[{d}] = r[{s1}] % {div}")
            else:
                lines.append(f"r[{d}] = 0")
        elif op is Opcode.LOAD or op is Opcode.LOADL or op is Opcode.LOADM:
            lines.append(f"r[{d}] = data[(r[{s1}] + {imm or 0}) % {dlen}]")
        elif op is Opcode.STORE:
            lines.append(f"v = r[{s2}]")
            lines.append(f"if not {_I64_MIN} <= v <= {_I64_MAX}: "
                         "raise OverflowError(f'STORE of {v} outside int64')")
            lines.append(f"data[(r[{s1}] + {imm or 0}) % {dlen}] = v")
    return lines


def _literal_step(block, program, dlen: int):
    """``block`` compiled from its own source, operands as literals."""
    tables = program.tables
    b = block.index
    kind = block.kind
    lines = _semantic_lines(block, dlen)
    if kind is BlockKind.FALL:
        lines.append(f"return {int(tables.fall_next[b])}")
    elif kind is BlockKind.JMP or kind is BlockKind.CALL:
        lines.append(f"return {int(tables.taken_target[b])}")
    elif kind is BlockKind.COND:
        lines.append(_cond_expr(block.terminator, int(tables.taken_target[b]),
                                int(tables.fall_next[b])))
    elif kind is BlockKind.ICALL:
        term = block.terminator
        entries = tuple(program.function(name).entry.index
                        for name in term.itable)
        lines.append(f"return {entries!r}[r[{term.src1}] % {len(entries)}]")
    else:
        lines.append("return -1")
    namespace: dict = {}
    exec(compile("def _step(r, data):\n    " + "\n    ".join(lines) + "\n",
                 "<literal block>", "exec"), namespace)
    return namespace["_step"]


def _outcome(step, regs, data):
    """What one call of ``step`` does to copies of ``regs`` and ``data``."""
    regs, data = list(regs), list(data)
    try:
        result = step(regs, data)
    except Exception as exc:  # noqa: BLE001 - compared, not hidden
        result = (type(exc), str(exc))
    return result, regs, data


def _bytecode(step, adaptive=False):
    """``step``'s instructions; ``adaptive`` shows the quickened form that
    CPython 3.11+ runs."""
    options = {"adaptive": True} if adaptive and sys.version_info >= (3, 11) \
        else {}
    return [(i.opname, i.argval)
            for i in dis.get_instructions(step, **options)]


_SEMANTIC = (Opcode.LI, Opcode.MOV, Opcode.ADD, Opcode.ADDI, Opcode.SUB,
             Opcode.SUBI, Opcode.MUL, Opcode.DIV, Opcode.AND, Opcode.OR,
             Opcode.XOR, Opcode.SHL, Opcode.SHR, Opcode.MODI, Opcode.LOAD,
             Opcode.LOADL, Opcode.LOADM, Opcode.STORE, Opcode.FADD,
             Opcode.FMUL, Opcode.FDIV, Opcode.NOP)
#: Opcodes whose generated code reads a missing immediate as 0.
_IMM_MAY_BE_NONE = (Opcode.SHL, Opcode.SHR, Opcode.MODI, Opcode.LOAD,
                    Opcode.LOADL, Opcode.LOADM, Opcode.STORE)
_CONDS = (Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE, Opcode.BEQI,
          Opcode.BNEI, Opcode.BLTI, Opcode.BGEI)
_EXITS = ("fall", Opcode.JMP, Opcode.CALL, Opcode.ICALL, Opcode.RET,
          Opcode.HALT, *_CONDS)

_registers = st.integers(min_value=0, max_value=NUM_REGISTERS - 1)
_edges = st.sampled_from([0, 1, 63, 64, 65, 127, 128, (1 << 63) - 1, 1 << 63,
                          (1 << 64) - 1, 1 << 64, -1, -64, -(1 << 63),
                          -(1 << 63) - 1, -(1 << 64)])
_immediates = st.one_of(st.integers(min_value=-70, max_value=70), _edges,
                        st.integers(min_value=-(1 << 66), max_value=1 << 66))
_values = st.one_of(st.integers(min_value=-3, max_value=300), _edges)


@st.composite
def _instructions(draw):
    op = draw(st.sampled_from(_SEMANTIC))
    imm = draw(_immediates)
    if op in _IMM_MAY_BE_NONE and draw(st.integers(0, 7)) == 0:
        imm = None
    return Instruction(op, dst=draw(_registers), src1=draw(_registers),
                       src2=draw(_registers), imm=imm)


@st.composite
def _blocks(draw):
    """A program whose ``main.entry`` holds random semantic instructions
    and one of every exit kind; its successors and callees are blocks of
    their own. Returns it with a register file and a data segment."""
    body = draw(st.lists(_instructions(), min_size=0, max_size=10))
    exit_ = draw(st.sampled_from(_EXITS))
    if exit_ == "fall":
        body = body or [Instruction(Opcode.NOP)]
    elif exit_ is Opcode.JMP:
        body.append(Instruction(exit_, target="main.target"))
    elif exit_ in _CONDS:
        body.append(Instruction(exit_, src1=draw(_registers),
                                src2=draw(_registers), imm=draw(_immediates),
                                target="main.target"))
    elif exit_ is Opcode.CALL:
        body.append(Instruction(exit_, target="cb1"))
    elif exit_ is Opcode.ICALL:
        table = draw(st.lists(st.sampled_from(["cb0", "cb1", "cb2", "cb3"]),
                              min_size=1, max_size=6))
        body.append(Instruction(exit_, src1=draw(_registers),
                                itable=tuple(table)))
    else:
        body.append(Instruction(exit_))
    main = Function("main")
    main.add_block(BasicBlock("main.entry", body))
    main.add_block(BasicBlock("main.next", [Instruction(Opcode.HALT)]))
    main.add_block(BasicBlock("main.target", [Instruction(Opcode.HALT)]))
    callees = []
    for i in range(4):
        callee = Function(f"cb{i}")
        callee.add_block(BasicBlock(f"cb{i}.body", [Instruction(Opcode.RET)]))
        callees.append(callee)
    data = draw(st.lists(st.integers(min_value=_I64_MIN, max_value=_I64_MAX),
                         min_size=1, max_size=9))
    program = Program("shapes", [main, *callees], entry="main",
                      data=np.asarray(data, dtype=np.int64)).finalize()
    regs = draw(st.lists(_values, min_size=NUM_REGISTERS,
                         max_size=NUM_REGISTERS))
    return program, regs, data


@settings(max_examples=400, deadline=None)
@given(case=_blocks())
def test_shape_steps_match_literal_source(case):
    """A step instantiated from its shape's template gives the successor,
    registers, data and exception of the block compiled from literal
    source, with the same bytecode and no placeholder left."""
    program, regs, data = case
    block = program.block("main.entry")
    step = compile_block(block, program, len(data))
    oracle = _literal_step(block, program, len(data))
    assert _outcome(step, regs, data) == _outcome(oracle, regs, data)
    assert _bytecode(step) == _bytecode(oracle)
    assert not [c for c in step.__code__.co_consts
                if isinstance(c, str) and c.startswith("\0")]


def test_blocks_of_one_shape_cost_one_compile(monkeypatch):
    """Two blocks with the same operations and different operands share
    one compile() and still differ in what they do. The second step is
    made from the first one's code after that has run (and specialized)."""
    compiles = []
    monkeypatch.setattr(interpreter, "compile",
                        lambda *args: compiles.append(args) or compile(*args),
                        raising=False)
    monkeypatch.setattr(interpreter, "_STEPS", {})
    monkeypatch.setattr(interpreter, "_SHAPES", {})
    b = ProgramBuilder("t", data=np.arange(8, dtype=np.int64))
    f = b.function("main")
    f.block("one")
    f.addi(3, 4, 5)
    f.load(6, 3, 2)
    f.bgei(6, 7, "one")
    f.block("two")
    f.addi(9, 1, -8)
    f.load(2, 9, 200)
    f.bgei(2, 1 << 64, "one")
    f.block("exit")
    f.halt()
    program = b.build()
    regs = list(range(NUM_REGISTERS))
    data = list(range(8))
    steps = {}
    for label in ("main.one", "main.two"):
        block = program.block(label)
        steps[label] = compile_block(block, program, 8)
        oracle = _literal_step(block, program, 8)
        assert _bytecode(steps[label], adaptive=True) \
            == _bytecode(oracle, adaptive=True)
        for _ in range(20):
            assert _outcome(steps[label], regs, data) \
                == _outcome(oracle, regs, data)
    assert len(compiles) == 1
    assert steps["main.one"] is not steps["main.two"]
