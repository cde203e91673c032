"""The :class:`Instruction` record.

Instructions are immutable once a program is finalized; the address field is
filled in by :meth:`repro.isa.program.Program.layout`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.opcodes import (
    BRANCHES,
    CONDITIONAL_BRANCHES,
    IMM_BRANCHES,
    Opcode,
    OpcodeInfo,
    info,
)

#: Default encoded size of every instruction, in bytes. A fixed size keeps the
#: address arithmetic trivial while still giving distinct per-instruction
#: addresses, which is all the sampling layer needs.
INSTRUCTION_SIZE = 4


@dataclass
class Instruction:
    """One synthetic-ISA instruction.

    Parameters
    ----------
    opcode:
        The operation.
    dst, src1, src2:
        Register indices (``None`` where unused).
    imm:
        Immediate operand (``None`` where unused).
    target:
        Label of the taken-successor block (branches), or callee function
        name (``CALL``).
    itable:
        For ``ICALL``: list of candidate callee function names; the callee is
        ``itable[regs[src1] % len(itable)]``.
    """

    opcode: Opcode
    dst: int | None = None
    src1: int | None = None
    src2: int | None = None
    imm: int | None = None
    target: str | None = None
    itable: tuple[str, ...] | None = None
    size: int = INSTRUCTION_SIZE
    #: Virtual address; assigned at program layout time.
    address: int = field(default=-1, compare=False)

    @property
    def op_info(self) -> OpcodeInfo:
        """Static properties of this instruction's opcode."""
        return info(self.opcode)

    @property
    def is_branch(self) -> bool:
        """True for any control-transfer instruction."""
        return self.opcode in BRANCHES

    @property
    def is_conditional(self) -> bool:
        """True for a conditional branch."""
        return self.opcode in CONDITIONAL_BRANCHES

    @property
    def uses_immediate_compare(self) -> bool:
        """True for conditional branches comparing against an immediate."""
        return self.opcode in IMM_BRANCHES

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        parts = [self.opcode.name.lower()]
        for label, val in (
            ("d", self.dst),
            ("s1", self.src1),
            ("s2", self.src2),
            ("imm", self.imm),
        ):
            if val is not None:
                parts.append(f"{label}={val}")
        if self.target is not None:
            parts.append(f"-> {self.target}")
        if self.itable is not None:
            parts.append(f"-> [{', '.join(self.itable)}]")
        addr = f"{self.address:#x}" if self.address >= 0 else "?"
        return f"{addr}: " + " ".join(parts)
