"""A block-granular interpreter for synthetic-ISA programs.

The interpreter compiles every basic block to a small Python function
(straight-line semantic updates plus a successor computation) and then drives
those compiled steps from a tight loop. Timing-only instructions (FP ops,
NOPs) are skipped during compilation — they matter only to the retirement
model, which works from the static pools. A block is compiled when it first
runs, and blocks with the same generated source share one compiled step.
The data segment is a Python list while a program runs.

The output is the *dynamic block sequence*: a ``numpy`` array of block indices
in execution order. Everything downstream (instruction traces, reference
counts, PMU sampling) derives from it.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import ExecutionError, ProgramError
from repro.isa.block import BasicBlock, BlockKind
from repro.isa.builder import NUM_REGISTERS
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.obs import count, span

#: Default dynamic-block budget; workloads that need more pass ``fuel=``.
DEFAULT_FUEL = 50_000_000

_U64 = 0xFFFF_FFFF_FFFF_FFFF
_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1

#: A compiled block: ``step(registers, data) -> successor index``.
Step = Callable[[list[int], list[int]], int]

#: Compiled block steps shared by every program, keyed by generated source
#: and ICALL table. Sources name their successors and the data length, so
#: equal keys mean equal behaviour. Cleared when full.
_STEPS: dict[tuple[str, tuple[int, ...]], Step] = {}
_STEPS_CAP = 16384


@dataclass
class InterpreterResult:
    """Outcome of one program execution."""

    block_seq: np.ndarray      # int32 dynamic block indices
    registers: list[int]       # final register file
    data: np.ndarray           # final data segment (program's copy untouched)

    @property
    def blocks_executed(self) -> int:
        return int(self.block_seq.size)


def _cond_expr(instr, taken: int, fall: int) -> str:
    """Python expression selecting the successor of a conditional branch."""
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


def _semantic_lines(block: BasicBlock, dlen: int) -> list[str]:
    """Source lines for the semantic (non-branch) instructions of a block."""
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
            # The segment is int64: refuse what it cannot hold at the store.
            lines.append(f"v = r[{s2}]")
            lines.append(f"if not {_I64_MIN} <= v <= {_I64_MAX}: "
                         "raise OverflowError(f'STORE of {v} outside int64')")
            lines.append(f"data[(r[{s1}] + {imm or 0}) % {dlen}] = v")
        # FADD/FMUL/FDIV/NOP: timing-only, no semantics.
    return lines


def compile_block(block: BasicBlock, program: Program, dlen: int) -> Step:
    """Compile one basic block to ``step(r, data) -> successor_index``.

    Successor conventions: RET and HALT return ``-1`` (the driver consults
    the block kind); CALL/ICALL return the callee's entry-block index and
    the driver pushes the continuation.
    """
    tables = program.tables
    b = block.index
    kind = block.kind
    lines = _semantic_lines(block, dlen)
    entries: tuple[int, ...] = ()

    if kind is BlockKind.FALL:
        lines.append(f"return {int(tables.fall_next[b])}")
    elif kind is BlockKind.JMP:
        lines.append(f"return {int(tables.taken_target[b])}")
    elif kind is BlockKind.COND:
        term = block.terminator
        assert term is not None
        lines.append(_cond_expr(
            term, int(tables.taken_target[b]), int(tables.fall_next[b])
        ))
    elif kind is BlockKind.CALL:
        lines.append(f"return {int(tables.taken_target[b])}")
    elif kind is BlockKind.ICALL:
        term = block.terminator
        assert term is not None and term.itable
        entries = tuple(
            program.function(name).entry.index for name in term.itable
        )
        lines.append(f"return _tbl[r[{term.src1}] % {len(entries)}]")
    else:  # RET, HALT
        lines.append("return -1")

    body = "\n    ".join(lines)
    src = f"def _step(r, data):\n    {body}\n"
    key = (src, entries)
    step = _STEPS.get(key)
    if step is None:
        namespace: dict[str, object] = {"_tbl": entries}
        exec(compile(src, f"<block {block.label}>", "exec"), namespace)
        step = namespace["_step"]  # type: ignore[assignment]
        if len(_STEPS) >= _STEPS_CAP:
            _STEPS.clear()
        _STEPS[key] = step
    return step  # type: ignore[return-value]


def compile_program(program: Program, dlen: int) -> list[Step]:
    """Steps for every block of a finalized program, compiled on first run.

    Each entry starts as a stub that compiles its block when first called,
    replaces itself in the returned list and runs the block, so blocks that
    never run cost nothing. Stubs hold the program weakly: a step list kept
    beside the program does not keep it alive.
    """
    if not program.finalized:
        raise ProgramError("program must be finalized before compilation")
    ref = weakref.ref(program)
    steps: list[Step] = []

    def stub(b: int) -> Step:
        def compile_on_first_run(r: list[int], data: list[int]) -> int:
            prog = ref()  # alive: the caller running it holds it
            step = compile_block(prog.blocks[b], prog, dlen)
            steps[b] = step
            return step(r, data)
        return compile_on_first_run

    steps.extend(stub(b) for b in range(program.num_blocks))
    return steps


def run_program(
    program: Program,
    fuel: int = DEFAULT_FUEL,
    registers: list[int] | None = None,
) -> InterpreterResult:
    """Execute ``program`` and return its dynamic block sequence.

    Parameters
    ----------
    program:
        A finalized program.
    fuel:
        Maximum number of dynamic basic blocks before raising
        :class:`ExecutionError` (guards against runaway programs).
    registers:
        Optional initial register file (defaults to all zeros).
    """
    with span("interpret", program=program.name, fuel=fuel) as sp:
        result = _run_program(program, fuel, registers)
        sp.set(blocks=result.blocks_executed)
        count("interpret.blocks", result.blocks_executed)
    return result


def _run_program(
    program: Program,
    fuel: int,
    registers: list[int] | None,
) -> InterpreterResult:
    program.finalize()
    data = program.data.tolist()
    steps = compile_program(program, len(data))
    kinds = [int(k) for k in program.tables.block_kind]
    conts = [int(c) for c in program.tables.fall_next]

    regs = list(registers) if registers is not None else [0] * NUM_REGISTERS
    if len(regs) != NUM_REGISTERS:
        raise ExecutionError(
            f"register file must have {NUM_REGISTERS} entries, got {len(regs)}"
        )

    k_call = int(BlockKind.CALL)
    k_icall = int(BlockKind.ICALL)
    k_ret = int(BlockKind.RET)
    k_halt = int(BlockKind.HALT)

    entry = program.function(program.entry).entry.index
    seq: list[int] = []
    append = seq.append
    stack: list[int] = []
    cur = entry
    remaining = fuel

    while True:
        append(cur)
        remaining -= 1
        if remaining < 0:
            raise ExecutionError(
                f"program {program.name!r} exceeded fuel of {fuel} blocks"
            )
        nxt = steps[cur](regs, data)
        k = kinds[cur]
        if k == k_ret:
            if not stack:
                break
            cur = stack.pop()
        elif k == k_halt:
            break
        elif k == k_call or k == k_icall:
            stack.append(conts[cur])
            cur = nxt
        else:
            cur = nxt

    return InterpreterResult(
        block_seq=np.asarray(seq, dtype=np.int32),
        registers=regs,
        data=np.array(data, dtype=np.int64),
    )
