"""The one driver that runs synthetic-ISA programs.

:func:`run_program` compiles every basic block to a small Python function
(straight-line semantic updates plus a successor computation) and drives
those compiled steps from a tight loop. Timing-only instructions (FP ops,
NOPs) are skipped during compilation — they matter only to the retirement
model, which works from the static pools. A block is compiled when it first
runs. The data segment is a Python list while a program runs. At a static
loop header outside any call, the counted-loop analysis of
:mod:`repro.cpu.lanes` (imported on the first run) emits thousands of
iterations at once; any iteration it cannot prove runs block by block, so
the sequence is exact. Reading a register the lanes could not reconstruct
replays the run with the lanes off (see :class:`LazyRegisters`).

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
counts, PMU sampling) derives from it. The oracle that checks it,
:func:`repro.cpu.engine.interpret`, shares none of this code.
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


#: Compiled steps a derived program starts from, by block index, held
#: until its first run (:func:`share_steps`).
_SHARED: "weakref.WeakKeyDictionary[Program, dict[int, Step]]" = \
    weakref.WeakKeyDictionary()


def share_steps(source: Program, derived: Program) -> None:
    """Let ``derived``, a :meth:`~repro.isa.program.Program.derive` of
    ``source``, start from the steps ``source`` has compiled.

    A block the two programs share compiles to the same step in both, so
    it keeps ``source``'s step when ``source`` has run it. The blocks of
    the replaced function, and shared blocks ``source`` never ran, stay
    stubs that compile on their first run in ``derived``. A ``source``
    that never ran shares nothing.
    """
    art = _ARTIFACTS.get(source)
    if art is None:
        return
    ours, theirs = derived.blocks, source.blocks
    # A compiled step runs with the builtins-only globals; a stub does not.
    _SHARED[derived] = {
        b: step for b, step in enumerate(art.steps)
        if ours[b] is theirs[b] and step.__globals__ is _STEP_GLOBALS
    }


# -- the driver --------------------------------------------------------------

#: Consecutive zero-progress lane attempts before a header is abandoned
#: for the remainder of the run.
_MAX_ZERO_RUNS = 2
#: Analysis attempts (distinct entry states) cached per loop header.
_MAX_ANALYSES = 4
#: First lane-batch width for a loop header; consecutive batches double
#: from here up to :data:`repro.cpu.lanes.MAX_LANES`.
_BASE_LANES = 1024
#: Width used when a header is re-entered after its loop was seen ending
#: (partial or empty batch).  Mask work is O(width), so re-probing a loop
#: that usually runs dry again — an inner loop re-entered per outer
#: iteration, or a header revisited after exit — must be cheap; a genuinely
#: long re-entry just ramps back up by doubling.
_PROBE_LANES = 256


class _ProgramArtifacts:
    """Compilation state for one program (weakly keyed, reused across runs)."""

    def __init__(self, program: Program) -> None:
        from repro.cpu import lanes

        program.finalize()
        self.dlen = int(program.data.size)
        self.steps = compile_program(program, self.dlen)
        for b, step in _SHARED.pop(program, {}).items():
            self.steps[b] = step
        tables = program.tables
        self.kinds = [int(k) for k in tables.block_kind]
        self.conts = [int(c) for c in tables.fall_next]
        self.entry = program.function(program.entry).entry.index
        #: Loop headers still worth an analysis attempt.
        self.hot = set(lanes.loop_header_candidates(program))
        self.analyses: dict[int, list] = {}
        self._stores: bool | None = None
        self._program = weakref.ref(program)

    def stores(self) -> bool:
        """Whether the program writes its data segment (scanned on first
        use: most programs never run a lane batch and never ask)."""
        if self._stores is None:
            program = self._program()
            self._stores = any(ins.opcode is Opcode.STORE
                               for block in program.blocks
                               for ins in block.instructions)
        return self._stores

    def analysis_for(self, header: int, regs: list):
        """A cached loop analysis valid at ``regs``, or None.  A header
        whose first analysis fails leaves :attr:`hot` for good."""
        slot = self.analyses.setdefault(header, [])
        for an in slot:
            if an.valid_for(regs):
                return an
        if len(slot) >= _MAX_ANALYSES:
            return None
        program = self._program()
        if program is None:  # pragma: no cover - program died mid-run
            return None
        from repro.cpu import lanes

        an = lanes.analyze_loop(program, header, regs)
        if an is None:
            if not slot:
                self.hot.discard(header)
            return None
        slot.append(an)
        return an


_ARTIFACTS: "weakref.WeakKeyDictionary[Program, _ProgramArtifacts]" = \
    weakref.WeakKeyDictionary()


def _artifacts_for(program: Program) -> _ProgramArtifacts:
    art = _ARTIFACTS.get(program)
    if art is None:
        art = _ProgramArtifacts(program)
        _ARTIFACTS[program] = art
    return art


class LazyRegisters(list):
    """A final register file materialized on first access.

    The lanes defer loop-carried values they cannot reconstruct; reading
    any element replays the run once with the lanes off and caches the
    exact register file.  All list behaviour (len, iteration, indexing,
    equality, repr) forces materialization first.
    """

    def __init__(self, replay: Callable[[], list[int]]) -> None:
        super().__init__()
        self._replay = replay
        self._forced = False

    def _force(self) -> None:
        if not self._forced:
            list.extend(self, self._replay())
            self._forced = True


def _forcing(method):
    def forced(self, *args):
        self._force()
        return method(self, *args)
    return forced


for _name in ("__len__", "__getitem__", "__iter__", "__eq__", "__ne__",
              "__contains__", "__repr__"):
    setattr(LazyRegisters, _name, _forcing(getattr(list, _name)))


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
        result = _run(program, fuel, registers, laned=True)
        sp.set(blocks=result.blocks_executed)
        count("interpret.blocks", result.blocks_executed)
    return result


def _run(
    program: Program,
    fuel: int,
    registers: list[int] | None,
    laned: bool,
) -> InterpreterResult:
    """The driver loop; ``laned=False`` replays with the lanes off."""
    from repro.cpu import lanes

    art = _artifacts_for(program)
    # Steps read and write a list; the lanes read an int64 array, which is
    # the program's own segment unless a store may have changed the list.
    data = program.data.tolist()
    lane_data = program.data
    steps = art.steps
    kinds = art.kinds
    conts = art.conts

    regs = list(registers) if registers is not None else [0] * NUM_REGISTERS
    if len(regs) != NUM_REGISTERS:
        raise ExecutionError(
            f"register file must have {NUM_REGISTERS} entries, got {len(regs)}"
        )

    k_call = int(BlockKind.CALL)
    k_icall = int(BlockKind.ICALL)
    k_ret = int(BlockKind.RET)
    k_halt = int(BlockKind.HALT)

    hot = art.hot if laned else frozenset()
    disabled: set[int] = set()
    zero_runs: dict[int, int] = {}
    # Lane-batch ramp: run_batch pays O(width) mask work even when few
    # lanes are live, so a fixed width wastes a full batch of dead lanes
    # every time a short loop is re-entered.  Start small and double on
    # each consecutive batch of the same loop — overshoot is bounded by
    # one (final) batch while long loops still reach full width.
    widths: dict[int, int] = {}
    chunks: list[np.ndarray] = []
    seg: list[int] = []
    append = seg.append
    stack: list[int] = []
    cur = art.entry
    emitted = 0
    opaque_present = False

    def overflow() -> ExecutionError:
        return ExecutionError(
            f"program {program.name!r} exceeded fuel of {fuel} blocks"
        )

    try:
        while True:
            if cur in hot and not stack and cur not in disabled:
                an = art.analysis_for(cur, regs)
                if an is not None:
                    width = widths.get(cur, _BASE_LANES)
                    if art.stores():
                        lane_data = np.array(data, dtype=np.int64)
                    batch = an.run_batch(regs, lane_data, width)
                    if batch is None:
                        widths[cur] = _PROBE_LANES
                        z = zero_runs.get(cur, 0) + 1
                        zero_runs[cur] = z
                        if z >= _MAX_ZERO_RUNS:
                            disabled.add(cur)
                    else:
                        chunk, n_blocks, n_iters = batch
                        # A full batch means the loop is still going: retry
                        # wider.  A partial one proves it ended mid-batch,
                        # so the next entry starts at probe width.
                        widths[cur] = (min(width * 2, lanes.MAX_LANES)
                                       if n_iters >= width else _PROBE_LANES)
                        zero_runs[cur] = 0
                        emitted += n_blocks
                        if emitted > fuel:
                            raise overflow()
                        if seg:
                            chunks.append(np.asarray(seg, dtype=np.int32))
                            seg = []
                            append = seg.append
                        chunks.append(chunk)
                        if an.carried and not opaque_present:
                            opaque_present = any(
                                regs[r] is lanes.OPAQUE_REG
                                for r in an.carried
                            )
                        continue
            append(cur)
            emitted += 1
            if emitted > fuel:
                raise overflow()
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
    except lanes.OpaqueRegisterRead:
        # A deferred loop-carried value fed back into control or memory:
        # replay the run exactly, with the lanes off.
        return _run(program, fuel, registers, laned=False)
    except (TypeError, ValueError, IndexError):
        # NumPy reports a poison index as IndexError/TypeError instead of
        # letting the _OpaqueRegister.__index__ trap propagate.
        if opaque_present:
            return _run(program, fuel, registers, laned=False)
        raise

    if seg:
        chunks.append(np.asarray(seg, dtype=np.int32))
    block_seq = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)

    if opaque_present and any(r is lanes.OPAQUE_REG for r in regs):
        initial = None if registers is None else list(registers)
        regs = LazyRegisters(
            lambda: _run(program, fuel, initial, laned=False).registers)
    return InterpreterResult(
        block_seq=np.ascontiguousarray(block_seq, dtype=np.int32),
        registers=regs,
        data=np.array(data, dtype=np.int64),
    )
