"""The ``Engine`` seam, and the oracle that checks the product.

An engine owns the three expensive stages of a cell evaluation — running a
program to its dynamic block sequence, observing the trace on a machine, and
collecting PMU samples — behind one small protocol.  One engine runs the
product, :class:`repro.cpu.fastengine.FastEngine`, in every harness and
every library entry point without an explicit engine.

:class:`ReferenceEngine` is the oracle, and no product module imports it.
Its :func:`interpret` shares no code with the product's driver: it steps
one instruction at a time through an opcode table and takes successors
from branch labels and each function's block order, with no compiled
steps, static successor tables or lanes.  It samples with the
per-instruction :class:`~repro.pmu.sampler.Sampler`.  The differential
suites in ``tests/`` hold the product bit-identical to it; pass an
instance to ``Harness(engine=...)`` to debug a result against it.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.cpu.interpreter import DEFAULT_FUEL, InterpreterResult
from repro.cpu.machine import Execution, Machine
from repro.cpu.trace import Trace
from repro.cpu.uarch import Microarchitecture
from repro.errors import ExecutionError
from repro.isa.builder import NUM_REGISTERS
from repro.isa.opcodes import Opcode


class Engine(Protocol):
    """What the harness needs from an execution back-end."""

    def program(self, workload_name: str, scale: float = 1.0):
        """Build (or reuse) a workload's program at one scale."""

    def trace(self, program, fuel: int = DEFAULT_FUEL) -> Trace:
        """Execute ``program`` to its dynamic block sequence."""

    def execution(self, uarch: Microarchitecture, trace: Trace) -> Execution:
        """Observe ``trace`` on a machine (may share across calls)."""

    def sampler(self, execution: Execution):
        """A collector with ``collect(config, rng) -> SampleBatch``."""


class ReferenceEngine:
    """The exact oracle path: one fresh Execution per call."""

    def program(self, workload_name: str, scale: float = 1.0):
        from repro.workloads.registry import get_workload

        return get_workload(workload_name).build(scale=scale)

    def trace(self, program, fuel: int = DEFAULT_FUEL) -> Trace:
        return Trace(program, interpret(program, fuel=fuel).block_seq)

    def execution(self, uarch: Microarchitecture, trace: Trace) -> Execution:
        return Machine(uarch).attach(trace)

    def sampler(self, execution: Execution):
        from repro.pmu.sampler import Sampler

        return Sampler(execution)


# -- the plain interpreter ----------------------------------------------------

_WORD = (1 << 64) - 1


def _shift(ins) -> int:
    return (ins.imm or 0) & 63


def _address(regs, data, ins) -> int:
    return (regs[ins.src1] + (ins.imm or 0)) % len(data)


def _load(regs, data, ins) -> int:
    return data[_address(regs, data, ins)]


#: The value each register-writing opcode puts in ``dst``, from the
#: register file, the data segment and the instruction (the ISA's
#: semantics, :mod:`repro.isa.opcodes`). MUL and SHL wrap to 64 bits.
_RESULT = {
    Opcode.LI: lambda r, m, i: i.imm,
    Opcode.MOV: lambda r, m, i: r[i.src1],
    Opcode.ADD: lambda r, m, i: r[i.src1] + r[i.src2],
    Opcode.ADDI: lambda r, m, i: r[i.src1] + i.imm,
    Opcode.SUB: lambda r, m, i: r[i.src1] - r[i.src2],
    Opcode.SUBI: lambda r, m, i: r[i.src1] - i.imm,
    Opcode.MUL: lambda r, m, i: (r[i.src1] * r[i.src2]) & _WORD,
    Opcode.DIV: lambda r, m, i: r[i.src1] // r[i.src2] if r[i.src2] else 0,
    Opcode.AND: lambda r, m, i: r[i.src1] & r[i.src2],
    Opcode.OR: lambda r, m, i: r[i.src1] | r[i.src2],
    Opcode.XOR: lambda r, m, i: r[i.src1] ^ r[i.src2],
    Opcode.SHL: lambda r, m, i: (r[i.src1] << _shift(i)) & _WORD,
    Opcode.SHR: lambda r, m, i: r[i.src1] >> _shift(i),
    Opcode.MODI: lambda r, m, i: r[i.src1] % i.imm if i.imm else 0,
    Opcode.LOAD: _load, Opcode.LOADL: _load, Opcode.LOADM: _load,
}

#: Whether each conditional branch is taken.
_TAKEN = {
    Opcode.BEQ: lambda r, i: r[i.src1] == r[i.src2],
    Opcode.BNE: lambda r, i: r[i.src1] != r[i.src2],
    Opcode.BLT: lambda r, i: r[i.src1] < r[i.src2],
    Opcode.BGE: lambda r, i: r[i.src1] >= r[i.src2],
    Opcode.BEQI: lambda r, i: r[i.src1] == i.imm,
    Opcode.BNEI: lambda r, i: r[i.src1] != i.imm,
    Opcode.BLTI: lambda r, i: r[i.src1] < i.imm,
    Opcode.BGEI: lambda r, i: r[i.src1] >= i.imm,
}


def interpret(
    program,
    fuel: int = DEFAULT_FUEL,
    registers: list[int] | None = None,
) -> InterpreterResult:
    """Execute ``program`` one instruction at a time: the contract of
    :func:`repro.cpu.interpreter.run_program`, exceptions included."""
    program.finalize()
    regs = [0] * NUM_REGISTERS if registers is None else list(registers)
    if len(regs) != NUM_REGISTERS:
        raise ExecutionError(
            f"register file must have {NUM_REGISTERS} entries, got {len(regs)}"
        )
    data = program.data.tolist()
    # Falling through, not taking a branch and returning from a call all
    # continue at the next block of the same function.
    following = {}
    for function in program.functions:
        for block, after in zip(function.blocks, function.blocks[1:]):
            following[block.label] = after

    seq: list[int] = []
    stack = []
    block = program.function(program.entry).entry
    while block is not None:
        if len(seq) == fuel:
            raise ExecutionError(
                f"program {program.name!r} exceeded fuel of {fuel} blocks"
            )
        seq.append(block.index)
        successor = following.get(block.label)
        for ins in block.instructions:
            op = ins.opcode
            if op in _RESULT:
                regs[ins.dst] = _RESULT[op](regs, data, ins)
            elif op is Opcode.STORE:
                value = regs[ins.src2]
                if not -(1 << 63) <= value < (1 << 63):
                    raise OverflowError(f"STORE of {value} outside int64")
                data[_address(regs, data, ins)] = value
            elif op in _TAKEN:
                if _TAKEN[op](regs, ins):
                    successor = program.block(ins.target)
            elif op is Opcode.JMP:
                successor = program.block(ins.target)
            elif op is Opcode.CALL or op is Opcode.ICALL:
                callee = ins.target if op is Opcode.CALL \
                    else ins.itable[regs[ins.src1] % len(ins.itable)]
                stack.append(successor)
                successor = program.function(callee).entry
            elif op is Opcode.RET:
                successor = stack.pop() if stack else None
            elif op is Opcode.HALT:
                successor = None
            else:  # FADD, FMUL, FDIV, NOP: timing only
                assert op in (Opcode.FADD, Opcode.FMUL, Opcode.FDIV,
                              Opcode.NOP), op
        block = successor

    return InterpreterResult(
        block_seq=np.asarray(seq, dtype=np.int32),
        registers=regs,
        data=np.array(data, dtype=np.int64),
    )
