"""A block-granular interpreter for synthetic-ISA programs.

The interpreter compiles every basic block to a small Python function
(straight-line semantic updates plus a successor computation) and then drives
those compiled steps from a tight loop. Timing-only instructions (FP ops,
NOPs) are skipped during compilation — they matter only to the retirement
model, which works from the static pools. A block is compiled when it first
runs. The data segment is a Python list while a program runs.

A block's code is fixed by its *shape* (its semantic operations in order
and how it exits) and its *operands* (registers, immediates, successor
indices, the data length and the ICALL table). Each shape is compiled once
per process, into a template that holds a distinct placeholder constant
where each operand goes. A block's step is a code object of its shape with
the block's operands put in those constant slots (``CodeType.replace``):
the bytecode a ``compile()`` of the block's own source would give, for a
few microseconds instead of a parse. Steps are memoized by shape and
operands, so blocks with equal code share one step.

The output is the *dynamic block sequence*: a ``numpy`` array of block indices
in execution order. Everything downstream (instruction traces, reference
counts, PMU sampling) derives from it.
"""

from __future__ import annotations

import builtins
import types
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

#: Compiled block steps shared by every program, keyed by block shape and
#: operands (:func:`_shape_of`): equal keys mean equal code. Cleared when
#: full.
_STEPS: dict[tuple[tuple, tuple], Step] = {}
_STEPS_CAP = 16384

#: One template per block shape: (the shape, a code object of that shape,
#: and the constant slot of each operand). The code object is the compiled
#: one, with placeholders, until the shape's first step is made, and from
#: then on the newest step's. Cleared when full, as ``_STEPS`` is.
_SHAPES: dict[tuple, tuple] = {}
_SHAPES_CAP = 4096

#: The globals every step runs with: builtins only.
_STEP_GLOBALS = {"__builtins__": builtins}

#: Shape tokens with no opcode of their own: MODI by zero, which stores 0.
_MODI_ZERO = "modi 0"

#: Source lines per shape token: the token's operand count, then its lines.
#: ``{0}``, ``{1}``, ... are the token's operands and ``{n}`` is the data
#: length. FALL, JMP and CALL blocks exit through the JMP token, RET and
#: HALT through the RET token.
_LINES: dict[object, tuple] = {
    Opcode.LI: (2, "r[{0}] = {1}"),
    Opcode.MOV: (2, "r[{0}] = r[{1}]"),
    Opcode.ADD: (3, "r[{0}] = r[{1}] + r[{2}]"),
    Opcode.ADDI: (3, "r[{0}] = r[{1}] + {2}"),
    Opcode.SUB: (3, "r[{0}] = r[{1}] - r[{2}]"),
    Opcode.SUBI: (3, "r[{0}] = r[{1}] - {2}"),
    Opcode.MUL: (3, f"r[{{0}}] = (r[{{1}}] * r[{{2}}]) & {_U64}"),
    Opcode.DIV: (3, "r[{0}] = r[{1}] // r[{2}] if r[{2}] else 0"),
    Opcode.AND: (3, "r[{0}] = r[{1}] & r[{2}]"),
    Opcode.OR: (3, "r[{0}] = r[{1}] | r[{2}]"),
    Opcode.XOR: (3, "r[{0}] = r[{1}] ^ r[{2}]"),
    Opcode.SHL: (3, f"r[{{0}}] = (r[{{1}}] << {{2}}) & {_U64}"),
    Opcode.SHR: (3, "r[{0}] = r[{1}] >> {2}"),
    Opcode.MODI: (3, "r[{0}] = r[{1}] % {2}"),
    _MODI_ZERO: (1, "r[{0}] = 0"),
    # LOADL and LOADM are LOADs with other latencies.
    Opcode.LOAD: (3, "r[{0}] = data[(r[{1}] + {2}) % {n}]"),
    # The segment is int64: refuse what it cannot hold at the store.
    Opcode.STORE: (3, "v = r[{0}]",
                   f"if not {_I64_MIN} <= v <= {_I64_MAX}: "
                   "raise OverflowError(f'STORE of {{v}} outside int64')",
                   "data[(r[{1}] + {2}) % {n}] = v"),
    Opcode.JMP: (1, "return {0}"),
    Opcode.RET: (0, "return -1"),
    Opcode.ICALL: (3, "return {0}[r[{1}] % {2}]"),
    Opcode.BEQ: (4, "return {0} if r[{1}] == r[{2}] else {3}"),
    Opcode.BNE: (4, "return {0} if r[{1}] != r[{2}] else {3}"),
    Opcode.BLT: (4, "return {0} if r[{1}] < r[{2}] else {3}"),
    Opcode.BGE: (4, "return {0} if r[{1}] >= r[{2}] else {3}"),
    Opcode.BEQI: (4, "return {0} if r[{1}] == {2} else {3}"),
    Opcode.BNEI: (4, "return {0} if r[{1}] != {2} else {3}"),
    Opcode.BLTI: (4, "return {0} if r[{1}] < {2} else {3}"),
    Opcode.BGEI: (4, "return {0} if r[{1}] >= {2} else {3}"),
}

_THREE_REGS = frozenset({Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV,
                         Opcode.AND, Opcode.OR, Opcode.XOR})
_LOADS = frozenset({Opcode.LOAD, Opcode.LOADL, Opcode.LOADM})


@dataclass
class InterpreterResult:
    """Outcome of one program execution."""

    block_seq: np.ndarray      # int32 dynamic block indices
    registers: list[int]       # final register file
    data: np.ndarray           # final data segment (program's copy untouched)

    @property
    def blocks_executed(self) -> int:
        return int(self.block_seq.size)


def _shape_of(block: BasicBlock, program: Program,
              dlen: int) -> tuple[tuple, tuple]:
    """A block's shape (its tokens, exit last) and its operands in token
    order, led by the data length if the block loads or stores."""
    shape: list[object] = []
    ops: list[object] = [dlen]
    memory = False
    kind = block.kind
    body = block.instructions if kind is BlockKind.FALL \
        else block.instructions[:-1]
    for ins in body:
        op = ins.opcode
        if op in _THREE_REGS:
            ops += (ins.dst, ins.src1, ins.src2)
        elif op is Opcode.ADDI or op is Opcode.SUBI:
            ops += (ins.dst, ins.src1, ins.imm)
        elif op in _LOADS:
            op = Opcode.LOAD
            memory = True
            ops += (ins.dst, ins.src1, ins.imm or 0)
        elif op is Opcode.LI:
            ops += (ins.dst, ins.imm)
        elif op is Opcode.MOV:
            ops += (ins.dst, ins.src1)
        elif op is Opcode.SHL or op is Opcode.SHR:
            ops += (ins.dst, ins.src1, ins.imm % 64 if ins.imm else 0)
        elif op is Opcode.MODI:
            if ins.imm:
                ops += (ins.dst, ins.src1, ins.imm)
            else:
                op = _MODI_ZERO
                ops.append(ins.dst)
        elif op is Opcode.STORE:
            memory = True
            ops += (ins.src2, ins.src1, ins.imm or 0)
        else:  # FADD/FMUL/FDIV/NOP: timing-only, no semantics.
            continue
        shape.append(op)

    tables = program.tables
    b = block.index
    if kind is BlockKind.FALL:
        shape.append(Opcode.JMP)
        ops.append(int(tables.fall_next[b]))
    elif kind is BlockKind.JMP or kind is BlockKind.CALL:
        shape.append(Opcode.JMP)
        ops.append(int(tables.taken_target[b]))
    elif kind is BlockKind.COND:
        term = block.instructions[-1]
        shape.append(term.opcode)
        ops += (int(tables.taken_target[b]), term.src1,
                term.imm if term.uses_immediate_compare else term.src2,
                int(tables.fall_next[b]))
    elif kind is BlockKind.ICALL:
        term = block.instructions[-1]
        assert term.itable
        entries = tuple(
            program.function(name).entry.index for name in term.itable
        )
        shape.append(Opcode.ICALL)
        ops += (entries, term.src1, len(entries))
    else:  # RET, HALT: the driver consults the block kind
        shape.append(Opcode.RET)
    return tuple(shape), tuple(ops if memory else ops[1:])


def _placeholder(i: int) -> str:
    """Operand ``i``'s placeholder: a string constant the compiler can
    neither fold nor merge with another operand's."""
    return f"\0operand {i}"


def _template(shape: tuple) -> tuple:
    """Compile ``shape`` with a placeholder for each operand."""
    memory = Opcode.LOAD in shape or Opcode.STORE in shape
    data_len = repr(_placeholder(0))
    n = 1 if memory else 0
    lines: list[str] = []
    for token in shape:
        arity, *templates = _LINES[token]
        args = [repr(_placeholder(n + i)) for i in range(arity)]
        lines += (t.format(*args, n=data_len) for t in templates)
        n += arity
    src = "def _step(r, data):\n    " + "\n    ".join(lines) + "\n"
    namespace: dict[str, object] = {}
    exec(compile(src, "<block shape>", "exec"), namespace)
    code = namespace["_step"].__code__  # type: ignore[attr-defined]
    # The compiler keeps one constant per distinct placeholder.
    slots = tuple(code.co_consts.index(_placeholder(i)) for i in range(n))
    return shape, code, slots


def compile_block(block: BasicBlock, program: Program, dlen: int) -> Step:
    """Compile one basic block to ``step(r, data) -> successor_index``.

    Successor conventions: RET and HALT return ``-1`` (the driver consults
    the block kind); CALL/ICALL return the callee's entry-block index and
    the driver pushes the continuation.
    """
    shape, operands = _shape_of(block, program, dlen)
    step = _STEPS.get((shape, operands))
    if step is None:
        template = _SHAPES.get(shape)
        if template is None:
            template = _template(shape)
            if len(_SHAPES) >= _SHAPES_CAP:
                _SHAPES.clear()
            _SHAPES[shape] = template
        # The template's own shape keys the memo: one tuple per shape.
        shape, code, slots = template
        consts = list(code.co_consts)
        for i, slot in enumerate(slots):
            consts[slot] = operands[i]
        code = code.replace(co_consts=tuple(consts))
        # This code holds its operands in the same slots, so the shape's
        # next step can start from it and the placeholder code is freed.
        _SHAPES[shape] = (shape, code, slots)
        step = types.FunctionType(code, _STEP_GLOBALS)
        if len(_STEPS) >= _STEPS_CAP:
            _STEPS.clear()
        _STEPS[(shape, operands)] = step
    return step


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
