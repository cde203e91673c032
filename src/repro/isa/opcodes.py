"""Opcode and latency-class definitions for the synthetic ISA.

Each opcode carries a *latency class* rather than a cycle count: the same
program runs on several simulated microarchitectures, and each
microarchitecture maps latency classes to cycle counts
(see :mod:`repro.cpu.uarch`). Opcodes also carry a default uop count, which
the AMD IBS model uses (IBS samples at uop granularity, Section 6.2 of the
paper).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class LatencyClass(enum.IntEnum):
    """Abstract execution-latency buckets, mapped to cycles per uarch."""

    SINGLE = 0      # 1-cycle ALU op
    SHORT = 1       # 3-cycle op (e.g. integer multiply, FP add)
    MEDIUM = 2      # ~5-cycle op (e.g. FP multiply)
    LONG = 3        # ~20-cycle op (integer/FP divide) - the paper's "costly" op
    MEM_L1 = 4      # L1-hit load
    MEM_LLC = 5     # last-level-cache hit
    MEM_DRAM = 6    # memory access missing all caches


class Opcode(enum.IntEnum):
    """Instruction opcodes.

    Integer ops have full semantics in the interpreter; FP ops are
    timing-only (they never influence control flow); memory ops read/write a
    program-owned data segment so workloads can branch on input data.
    """

    # Integer arithmetic / moves (semantic)
    LI = 0       # dst <- imm
    MOV = 1      # dst <- src1
    ADD = 2      # dst <- src1 + src2
    ADDI = 3     # dst <- src1 + imm
    SUB = 4      # dst <- src1 - src2
    SUBI = 5     # dst <- src1 - imm
    MUL = 6      # dst <- src1 * src2
    DIV = 7      # dst <- src1 // src2 (src2 == 0 yields 0)
    AND = 8      # dst <- src1 & src2
    OR = 9       # dst <- src1 | src2
    XOR = 10     # dst <- src1 ^ src2
    SHL = 11     # dst <- src1 << (imm & 63)
    SHR = 12     # dst <- src1 >> (imm & 63)
    MODI = 13    # dst <- src1 % imm (imm == 0 yields 0)

    # Floating point (timing-only)
    FADD = 20
    FMUL = 21
    FDIV = 22

    # Memory (loads are semantic: they read the data segment)
    LOAD = 30    # dst <- data[(src1 + imm) % len(data)], L1 latency
    LOADL = 31   # same semantics, LLC latency
    LOADM = 32   # same semantics, DRAM latency
    STORE = 33   # data[(src1 + imm) % len(data)] <- src2

    # No-op / padding
    NOP = 40

    # Control transfer (block terminators)
    JMP = 50     # unconditional jump to target block
    BEQ = 51     # taken if src1 == src2
    BNE = 52     # taken if src1 != src2
    BLT = 53     # taken if src1 < src2
    BGE = 54     # taken if src1 >= src2
    BEQI = 55    # taken if src1 == imm
    BNEI = 56    # taken if src1 != imm
    BLTI = 57    # taken if src1 < imm
    BGEI = 58    # taken if src1 >= imm
    CALL = 59    # call target function, continue at fall-through block
    ICALL = 60   # indirect call: table[src1 % len(table)]
    RET = 61     # return from current function
    HALT = 62    # stop the machine


@dataclass(frozen=True)
class OpcodeInfo:
    """Static properties of an opcode."""

    latency: LatencyClass
    uops: int
    is_branch: bool = False       # any control transfer (may end a block)
    is_conditional: bool = False  # conditional branch (may fall through)
    is_call: bool = False
    is_ret: bool = False


_ALU = OpcodeInfo(LatencyClass.SINGLE, 1)
_BR = OpcodeInfo(LatencyClass.SINGLE, 1, is_branch=True)
_CBR = OpcodeInfo(LatencyClass.SINGLE, 1, is_branch=True, is_conditional=True)

OPCODE_INFO: dict[Opcode, OpcodeInfo] = {
    Opcode.LI: _ALU,
    Opcode.MOV: _ALU,
    Opcode.ADD: _ALU,
    Opcode.ADDI: _ALU,
    Opcode.SUB: _ALU,
    Opcode.SUBI: _ALU,
    Opcode.MUL: OpcodeInfo(LatencyClass.SHORT, 1),
    Opcode.DIV: OpcodeInfo(LatencyClass.LONG, 10),
    Opcode.AND: _ALU,
    Opcode.OR: _ALU,
    Opcode.XOR: _ALU,
    Opcode.SHL: _ALU,
    Opcode.SHR: _ALU,
    Opcode.MODI: OpcodeInfo(LatencyClass.LONG, 10),
    Opcode.FADD: OpcodeInfo(LatencyClass.SHORT, 1),
    Opcode.FMUL: OpcodeInfo(LatencyClass.MEDIUM, 1),
    Opcode.FDIV: OpcodeInfo(LatencyClass.LONG, 10),
    Opcode.LOAD: OpcodeInfo(LatencyClass.MEM_L1, 1),
    Opcode.LOADL: OpcodeInfo(LatencyClass.MEM_LLC, 1),
    Opcode.LOADM: OpcodeInfo(LatencyClass.MEM_DRAM, 1),
    Opcode.STORE: OpcodeInfo(LatencyClass.MEM_L1, 2),
    Opcode.NOP: _ALU,
    Opcode.JMP: _BR,
    Opcode.BEQ: _CBR,
    Opcode.BNE: _CBR,
    Opcode.BLT: _CBR,
    Opcode.BGE: _CBR,
    Opcode.BEQI: _CBR,
    Opcode.BNEI: _CBR,
    Opcode.BLTI: _CBR,
    Opcode.BGEI: _CBR,
    Opcode.CALL: OpcodeInfo(LatencyClass.SINGLE, 2, is_branch=True, is_call=True),
    Opcode.ICALL: OpcodeInfo(LatencyClass.SHORT, 3, is_branch=True, is_call=True),
    Opcode.RET: OpcodeInfo(LatencyClass.SINGLE, 2, is_branch=True, is_ret=True),
    Opcode.HALT: OpcodeInfo(LatencyClass.SINGLE, 1, is_branch=True),
}

#: Conditional branch opcodes comparing two registers.
REG_BRANCHES = frozenset(
    {Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE}
)

#: Conditional branch opcodes comparing a register with an immediate.
IMM_BRANCHES = frozenset(
    {Opcode.BEQI, Opcode.BNEI, Opcode.BLTI, Opcode.BGEI}
)

#: All conditional branch opcodes.
CONDITIONAL_BRANCHES = REG_BRANCHES | IMM_BRANCHES

#: All control-transfer opcodes (``OpcodeInfo.is_branch``).
BRANCHES = frozenset(op for op, inf in OPCODE_INFO.items() if inf.is_branch)


def info(op: Opcode) -> OpcodeInfo:
    """Return the :class:`OpcodeInfo` for ``op``."""
    return OPCODE_INFO[op]
