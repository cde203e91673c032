"""A small DSL for constructing synthetic-ISA programs.

Typical use::

    b = ProgramBuilder("latency_biased", data=input_array)
    f = b.function("main")
    f.block("entry")
    f.li(0, 1_000_000)            # r0 = n
    f.jmp("head")
    f.block("head")
    f.bnei(0, 0, "body", )        # while (n != 0)
    ...
    prog = b.build()              # validates, lays out, returns Program

Blocks are emitted in declaration order, which is also layout order;
fall-through successors (conditional not-taken paths, call continuations,
FALL blocks) always flow into the *next declared block*.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ProgramError
from repro.isa.block import BasicBlock
from repro.isa.function import Function
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program

#: Number of architectural registers available to programs.
NUM_REGISTERS = 32


class FunctionBuilder:
    """Builds one function; obtained from :meth:`ProgramBuilder.function`."""

    def __init__(self, program_builder: "ProgramBuilder", name: str) -> None:
        self._pb = program_builder
        self.name = name
        self._function = Function(name)
        self._current: BasicBlock | None = None

    @property
    def function(self) -> Function:
        """The function emitted so far."""
        return self._function

    # -- block management ---------------------------------------------------

    def block(self, label: str) -> "FunctionBuilder":
        """Start a new basic block; subsequent emits go into it.

        The label is automatically namespaced as ``<function>.<label>`` so
        labels only need to be unique within a function.
        """
        full = f"{self.name}.{label}"
        self._current = self._function.add_block(BasicBlock(full))
        return self

    def label_of(self, local: str) -> str:
        """The fully-qualified label for a local block name."""
        return f"{self.name}.{local}"

    def _emit(self, instr: Instruction) -> "FunctionBuilder":
        if self._current is None:
            raise ProgramError(
                f"function {self.name!r}: emit before any block() call"
            )
        if self._current.instructions and self._current.instructions[-1].is_branch:
            raise ProgramError(
                f"block {self._current.label!r} already has a terminator"
            )
        self._current.instructions.append(instr)
        return self

    # -- integer ops ---------------------------------------------------------

    def li(self, dst: int, imm: int) -> "FunctionBuilder":
        """dst <- imm"""
        return self._emit(Instruction(Opcode.LI, dst=dst, imm=imm))

    def mov(self, dst: int, src: int) -> "FunctionBuilder":
        """dst <- src"""
        return self._emit(Instruction(Opcode.MOV, dst=dst, src1=src))

    def add(self, dst: int, src1: int, src2: int) -> "FunctionBuilder":
        """dst <- src1 + src2"""
        return self._emit(Instruction(Opcode.ADD, dst=dst, src1=src1, src2=src2))

    def addi(self, dst: int, src1: int, imm: int) -> "FunctionBuilder":
        """dst <- src1 + imm"""
        return self._emit(Instruction(Opcode.ADDI, dst=dst, src1=src1, imm=imm))

    def sub(self, dst: int, src1: int, src2: int) -> "FunctionBuilder":
        """dst <- src1 - src2"""
        return self._emit(Instruction(Opcode.SUB, dst=dst, src1=src1, src2=src2))

    def subi(self, dst: int, src1: int, imm: int) -> "FunctionBuilder":
        """dst <- src1 - imm"""
        return self._emit(Instruction(Opcode.SUBI, dst=dst, src1=src1, imm=imm))

    def mul(self, dst: int, src1: int, src2: int) -> "FunctionBuilder":
        """dst <- src1 * src2 (SHORT latency)"""
        return self._emit(Instruction(Opcode.MUL, dst=dst, src1=src1, src2=src2))

    def div(self, dst: int, src1: int, src2: int) -> "FunctionBuilder":
        """dst <- src1 // src2 (LONG latency; divide-by-zero yields 0)"""
        return self._emit(Instruction(Opcode.DIV, dst=dst, src1=src1, src2=src2))

    def and_(self, dst: int, src1: int, src2: int) -> "FunctionBuilder":
        """dst <- src1 & src2"""
        return self._emit(Instruction(Opcode.AND, dst=dst, src1=src1, src2=src2))

    def or_(self, dst: int, src1: int, src2: int) -> "FunctionBuilder":
        """dst <- src1 | src2"""
        return self._emit(Instruction(Opcode.OR, dst=dst, src1=src1, src2=src2))

    def xor(self, dst: int, src1: int, src2: int) -> "FunctionBuilder":
        """dst <- src1 ^ src2"""
        return self._emit(Instruction(Opcode.XOR, dst=dst, src1=src1, src2=src2))

    def shl(self, dst: int, src1: int, imm: int) -> "FunctionBuilder":
        """dst <- src1 << (imm & 63)"""
        return self._emit(Instruction(Opcode.SHL, dst=dst, src1=src1, imm=imm))

    def shr(self, dst: int, src1: int, imm: int) -> "FunctionBuilder":
        """dst <- src1 >> (imm & 63)"""
        return self._emit(Instruction(Opcode.SHR, dst=dst, src1=src1, imm=imm))

    def modi(self, dst: int, src1: int, imm: int) -> "FunctionBuilder":
        """dst <- src1 % imm (LONG latency; imm == 0 yields 0)"""
        return self._emit(Instruction(Opcode.MODI, dst=dst, src1=src1, imm=imm))

    # -- floating point (timing-only) ----------------------------------------

    def fadd(self) -> "FunctionBuilder":
        """Timing-only FP add (SHORT latency)."""
        return self._emit(Instruction(Opcode.FADD))

    def fmul(self) -> "FunctionBuilder":
        """Timing-only FP multiply (MEDIUM latency)."""
        return self._emit(Instruction(Opcode.FMUL))

    def fdiv(self) -> "FunctionBuilder":
        """Timing-only FP divide (LONG latency)."""
        return self._emit(Instruction(Opcode.FDIV))

    # -- memory ---------------------------------------------------------------

    def load(self, dst: int, base: int, imm: int = 0) -> "FunctionBuilder":
        """dst <- data[(base_reg + imm) % len(data)] with L1 latency."""
        return self._emit(Instruction(Opcode.LOAD, dst=dst, src1=base, imm=imm))

    def loadl(self, dst: int, base: int, imm: int = 0) -> "FunctionBuilder":
        """Like :meth:`load` but with LLC latency."""
        return self._emit(Instruction(Opcode.LOADL, dst=dst, src1=base, imm=imm))

    def loadm(self, dst: int, base: int, imm: int = 0) -> "FunctionBuilder":
        """Like :meth:`load` but with DRAM latency."""
        return self._emit(Instruction(Opcode.LOADM, dst=dst, src1=base, imm=imm))

    def store(self, base: int, src: int, imm: int = 0) -> "FunctionBuilder":
        """data[(base_reg + imm) % len(data)] <- src_reg."""
        return self._emit(Instruction(Opcode.STORE, src1=base, src2=src, imm=imm))

    def nop(self, count: int = 1) -> "FunctionBuilder":
        """Emit ``count`` NOPs (single-cycle padding)."""
        for _ in range(count):
            self._emit(Instruction(Opcode.NOP))
        return self

    def alu_burst(self, count: int, dst: int = 30) -> "FunctionBuilder":
        """Emit ``count`` single-cycle ALU instructions touching a scratch reg.

        Convenience for giving a block "weight" without affecting control
        flow; register 30/31 are reserved scratch by convention.
        """
        for i in range(count):
            self._emit(Instruction(Opcode.ADDI, dst=dst, src1=dst, imm=1))
        return self

    def fp_burst(self, count: int) -> "FunctionBuilder":
        """Emit ``count`` timing-only FP adds."""
        for _ in range(count):
            self.fadd()
        return self

    # -- control transfer ------------------------------------------------------

    def jmp(self, label: str) -> "FunctionBuilder":
        """Unconditional jump to a local block label."""
        return self._emit(Instruction(Opcode.JMP, target=self.label_of(label)))

    def _branch(self, op: Opcode, src1: int, src2: int | None,
                imm: int | None, label: str) -> "FunctionBuilder":
        return self._emit(Instruction(
            op, src1=src1, src2=src2, imm=imm, target=self.label_of(label)
        ))

    def beq(self, src1: int, src2: int, label: str) -> "FunctionBuilder":
        """Branch to ``label`` if src1 == src2; else fall through."""
        return self._branch(Opcode.BEQ, src1, src2, None, label)

    def bne(self, src1: int, src2: int, label: str) -> "FunctionBuilder":
        """Branch to ``label`` if src1 != src2; else fall through."""
        return self._branch(Opcode.BNE, src1, src2, None, label)

    def blt(self, src1: int, src2: int, label: str) -> "FunctionBuilder":
        """Branch to ``label`` if src1 < src2; else fall through."""
        return self._branch(Opcode.BLT, src1, src2, None, label)

    def bge(self, src1: int, src2: int, label: str) -> "FunctionBuilder":
        """Branch to ``label`` if src1 >= src2; else fall through."""
        return self._branch(Opcode.BGE, src1, src2, None, label)

    def beqi(self, src1: int, imm: int, label: str) -> "FunctionBuilder":
        """Branch to ``label`` if src1 == imm; else fall through."""
        return self._branch(Opcode.BEQI, src1, None, imm, label)

    def bnei(self, src1: int, imm: int, label: str) -> "FunctionBuilder":
        """Branch to ``label`` if src1 != imm; else fall through."""
        return self._branch(Opcode.BNEI, src1, None, imm, label)

    def blti(self, src1: int, imm: int, label: str) -> "FunctionBuilder":
        """Branch to ``label`` if src1 < imm; else fall through."""
        return self._branch(Opcode.BLTI, src1, None, imm, label)

    def bgei(self, src1: int, imm: int, label: str) -> "FunctionBuilder":
        """Branch to ``label`` if src1 >= imm; else fall through."""
        return self._branch(Opcode.BGEI, src1, None, imm, label)

    def call(self, function_name: str) -> "FunctionBuilder":
        """Call ``function_name``; control continues at the next block."""
        return self._emit(Instruction(Opcode.CALL, target=function_name))

    def icall(self, selector: int, table: list[str]) -> "FunctionBuilder":
        """Indirect call: callee = table[regs[selector] % len(table)]."""
        return self._emit(Instruction(
            Opcode.ICALL, src1=selector, itable=tuple(table)
        ))

    def ret(self) -> "FunctionBuilder":
        """Return from the current function."""
        return self._emit(Instruction(Opcode.RET))

    def halt(self) -> "FunctionBuilder":
        """Stop the machine."""
        return self._emit(Instruction(Opcode.HALT))


class ProgramBuilder:
    """Builds a whole :class:`~repro.isa.program.Program`."""

    def __init__(self, name: str, data: np.ndarray | None = None) -> None:
        self.name = name
        self.data = data
        self._functions: list[FunctionBuilder] = []
        self._entry: str | None = None

    def function(self, name: str, entry: bool = False) -> FunctionBuilder:
        """Start a new function; the first declared function is the default
        entry unless another is flagged with ``entry=True``."""
        if any(fb.name == name for fb in self._functions):
            raise ProgramError(f"duplicate function {name!r}")
        fb = FunctionBuilder(self, name)
        self._functions.append(fb)
        if entry or self._entry is None:
            if entry:
                self._entry = name
            elif self._entry is None:
                self._entry = name
        return fb

    def build(self) -> Program:
        """Validate, lay out, and return the finished program."""
        program = Program(
            self.name,
            functions=[fb.function for fb in self._functions],
            entry=self._entry,
            data=self.data,
        )
        return program.finalize()
