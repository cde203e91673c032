"""Whole-program container: layout, validation, and static lookup tables.

A :class:`Program` owns an ordered list of functions plus an optional data
segment. ``layout()`` assigns every basic block a dense integer index and
every instruction a virtual address, then builds the flat numpy "pools" the
CPU and PMU layers use to expand a dynamic block sequence into per-instruction
arrays without Python loops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ProgramError
from repro.isa.block import BasicBlock, BlockKind
from repro.isa.function import Function
from repro.isa.opcodes import OPCODE_INFO, Opcode

#: Functions are placed at addresses aligned to this boundary, mirroring how
#: linkers align code sections. The gaps also make cross-function
#: address-range confusion detectable.
FUNCTION_ALIGNMENT = 0x100

#: Base address of the first function.
BASE_ADDRESS = 0x40_0000


def _by_opcode(field: str, dtype) -> np.ndarray:
    """``OpcodeInfo.<field>`` of every opcode, indexed by opcode number."""
    table = np.zeros(max(Opcode) + 1, dtype=dtype)
    for op, inf in OPCODE_INFO.items():
        table[op] = getattr(inf, field)
    return table


#: The per-instruction pool values of each opcode.
_LATCLASS = _by_opcode("latency", np.int8)
_UOPS = _by_opcode("uops", np.int16)
_IS_BRANCH = _by_opcode("is_branch", bool)


@dataclass
class StaticTables:
    """Flat numpy views of a laid-out program (all indexed by block index or
    by position in the static instruction pool)."""

    # Per-block arrays, length = number of blocks.
    block_sizes: np.ndarray          # int32: instructions per block
    block_start_addr: np.ndarray     # int64: address of first instruction
    block_end_addr: np.ndarray       # int64: one past last instruction
    block_kind: np.ndarray           # int8: BlockKind values
    block_func: np.ndarray           # int32: owning function id
    fall_next: np.ndarray            # int32: fall-through successor or -1
    taken_target: np.ndarray         # int32: taken successor / callee entry or -1
    instr_offset: np.ndarray         # int64: offset of block's first instr in pools

    # Per-instruction pools, length = total static instructions.
    pool_addr: np.ndarray            # int64
    pool_latclass: np.ndarray        # int8: LatencyClass values
    pool_uops: np.ndarray            # int16
    pool_is_branch: np.ndarray       # bool: control-transfer instruction


class Program:
    """An executable synthetic-ISA program."""

    def __init__(
        self,
        name: str,
        functions: list[Function] | None = None,
        entry: str | None = None,
        data: np.ndarray | None = None,
    ) -> None:
        if not name:
            raise ProgramError("program name must be non-empty")
        self.name = name
        self.functions: list[Function] = list(functions or [])
        self.entry = entry or (self.functions[0].name if self.functions else "")
        self.data = (
            np.asarray(data, dtype=np.int64)
            if data is not None
            else np.zeros(1, dtype=np.int64)
        )
        self._finalized = False
        self._blocks: list[BasicBlock] = []
        self._label_to_block: dict[str, BasicBlock] = {}
        self._func_ids: dict[str, int] = {}
        self._tables: StaticTables | None = None

    # -- construction ------------------------------------------------------

    def add_function(self, function: Function) -> Function:
        """Append a function (layout order = call order of this method)."""
        if self._finalized:
            raise ProgramError("cannot modify a finalized program")
        if any(f.name == function.name for f in self.functions):
            raise ProgramError(f"duplicate function {function.name!r}")
        self.functions.append(function)
        if not self.entry:
            self.entry = function.name
        return function

    # -- finalization --------------------------------------------------------

    def finalize(self) -> "Program":
        """Validate the program and compute layout tables. Idempotent."""
        if self._finalized:
            return self
        self._index()
        self._validate()
        self._layout()
        self._finalized = True
        return self

    @property
    def finalized(self) -> bool:
        return self._finalized

    def derive(self, function: Function) -> "Program":
        """A finalized copy of this program with ``function`` in place of
        the function of the same name.

        ``function`` may differ from the one it replaces only in operands
        (registers and immediates). Its block labels, opcodes, instruction
        sizes, branch targets and ICALL tables must be the same, so the
        copy reuses this program's index, validation and static tables
        instead of laying the program out again.
        """
        self._require_finalized()
        fid = self._func_ids.get(function.name)
        if fid is None:
            raise ProgramError(f"no function named {function.name!r}")
        old = self.functions[fid]
        if len(function.blocks) != len(old.blocks):
            raise ProgramError(
                f"function {function.name!r} has {len(function.blocks)} "
                f"blocks, not {len(old.blocks)}"
            )
        for was, new in zip(old.blocks, function.blocks):
            if (new.label, new.function, new.size) \
                    != (was.label, was.function, was.size) or any(
                        (a.opcode, a.target, a.itable, a.size)
                        != (b.opcode, b.target, b.itable, b.size)
                        for a, b in zip(was.instructions, new.instructions)):
                raise ProgramError(
                    f"block {new.label!r} differs from {was.label!r} "
                    "in more than operands"
                )
        derived = Program(self.name, self.functions, self.entry, self.data)
        derived.functions[fid] = function
        derived._blocks = list(self._blocks)
        derived._label_to_block = dict(self._label_to_block)
        for was, new in zip(old.blocks, function.blocks):
            new.index = was.index
            derived._blocks[new.index] = new
            derived._label_to_block[new.label] = new
            for a, b in zip(was.instructions, new.instructions):
                b.address = a.address
        derived._func_ids = self._func_ids
        derived._tables = self._tables
        derived._finalized = True
        return derived

    def _index(self) -> None:
        self._blocks = []
        self._label_to_block = {}
        self._func_ids = {}
        for fid, func in enumerate(self.functions):
            if func.name in self._func_ids:
                raise ProgramError(f"duplicate function {func.name!r}")
            self._func_ids[func.name] = fid
            for block in func.blocks:
                if block.label in self._label_to_block:
                    raise ProgramError(f"duplicate block label {block.label!r}")
                self._label_to_block[block.label] = block
                block.index = len(self._blocks)
                self._blocks.append(block)

    def _validate(self) -> None:
        if not self.functions:
            raise ProgramError(f"program {self.name!r} has no functions")
        if self.entry not in self._func_ids:
            raise ProgramError(f"entry function {self.entry!r} not defined")
        if self.data.ndim != 1 or self.data.size == 0:
            raise ProgramError("data segment must be a non-empty 1-D array")
        for func in self.functions:
            func.validate()
            self._validate_edges(func)

    def _validate_edges(self, func: Function) -> None:
        for pos, block in enumerate(func.blocks):
            kind = block.kind
            needs_fallthrough = kind in (
                BlockKind.FALL, BlockKind.COND, BlockKind.CALL, BlockKind.ICALL
            )
            if needs_fallthrough:
                if pos + 1 >= len(func.blocks):
                    raise ProgramError(
                        f"block {block.label!r} needs a fall-through successor"
                    )
                nxt = func.blocks[pos + 1]
            else:
                nxt = None
            term = block.terminator
            if kind in (BlockKind.JMP, BlockKind.COND):
                assert term is not None and term.target is not None
                target = self._label_to_block.get(term.target)
                if target is None:
                    raise ProgramError(
                        f"block {block.label!r}: unknown target {term.target!r}"
                    )
                if target.function != func.name:
                    raise ProgramError(
                        f"block {block.label!r}: branch target "
                        f"{term.target!r} is in another function"
                    )
                if kind is BlockKind.COND and nxt is not None \
                        and target.label == nxt.label:
                    raise ProgramError(
                        f"block {block.label!r}: conditional branch target "
                        "equals its fall-through successor"
                    )
            elif kind is BlockKind.CALL:
                assert term is not None
                if term.target not in self._func_ids:
                    raise ProgramError(
                        f"block {block.label!r}: unknown callee {term.target!r}"
                    )
            elif kind is BlockKind.ICALL:
                assert term is not None
                if not term.itable:
                    raise ProgramError(
                        f"block {block.label!r}: ICALL with empty table"
                    )
                for callee in term.itable:
                    if callee not in self._func_ids:
                        raise ProgramError(
                            f"block {block.label!r}: unknown indirect callee "
                            f"{callee!r}"
                        )

    def _layout(self) -> None:
        # Blocks are indexed in this traversal order, so per-block values
        # are appended at their index.
        nblocks = len(self._blocks)
        block_sizes: list[int] = []
        block_start: list[int] = []
        block_end: list[int] = []
        block_kind: list[int] = []
        block_func: list[int] = []
        instr_offset: list[int] = []
        fall_next = [-1] * nblocks
        taken_target = [-1] * nblocks
        pool_addr: list[int] = []
        pool_opcode: list[int] = []

        addr = BASE_ADDRESS
        for fid, func in enumerate(self.functions):
            # Align each function start.
            rem = addr % FUNCTION_ALIGNMENT
            if rem:
                addr += FUNCTION_ALIGNMENT - rem
            for pos, block in enumerate(func.blocks):
                b = block.index
                kind = block.kind
                block_sizes.append(block.size)
                block_kind.append(kind)
                block_func.append(fid)
                instr_offset.append(len(pool_addr))
                block_start.append(addr)
                for instr in block.instructions:
                    instr.address = addr
                    pool_addr.append(addr)
                    pool_opcode.append(instr.opcode)
                    addr += instr.size
                block_end.append(addr)

                if kind in (BlockKind.FALL, BlockKind.COND, BlockKind.CALL,
                            BlockKind.ICALL):
                    fall_next[b] = func.blocks[pos + 1].index
                if kind in (BlockKind.JMP, BlockKind.COND):
                    term = block.terminator
                    assert term is not None and term.target is not None
                    taken_target[b] = self._label_to_block[term.target].index
                elif kind is BlockKind.CALL:
                    term = block.terminator
                    assert term is not None and term.target is not None
                    callee = self.function(term.target)
                    taken_target[b] = callee.entry.index

        opcodes = np.array(pool_opcode, dtype=np.intp)
        self._tables = StaticTables(
            block_sizes=np.array(block_sizes, dtype=np.int32),
            block_start_addr=np.array(block_start, dtype=np.int64),
            block_end_addr=np.array(block_end, dtype=np.int64),
            block_kind=np.array(block_kind, dtype=np.int8),
            block_func=np.array(block_func, dtype=np.int32),
            fall_next=np.array(fall_next, dtype=np.int32),
            taken_target=np.array(taken_target, dtype=np.int32),
            instr_offset=np.array(instr_offset, dtype=np.int64),
            pool_addr=np.array(pool_addr, dtype=np.int64),
            pool_latclass=_LATCLASS[opcodes],
            pool_uops=_UOPS[opcodes],
            pool_is_branch=_IS_BRANCH[opcodes],
        )

    # -- queries -----------------------------------------------------------

    def _require_finalized(self) -> None:
        if not self._finalized:
            raise ProgramError("program is not finalized; call finalize()")

    @property
    def tables(self) -> StaticTables:
        """The static numpy lookup tables (requires finalization)."""
        self._require_finalized()
        assert self._tables is not None
        return self._tables

    @property
    def blocks(self) -> list[BasicBlock]:
        """All blocks in layout order (requires finalization)."""
        self._require_finalized()
        return self._blocks

    @property
    def num_blocks(self) -> int:
        self._require_finalized()
        return len(self._blocks)

    @property
    def static_instruction_count(self) -> int:
        """Total static (not dynamic) instruction count."""
        self._require_finalized()
        return int(self.tables.pool_addr.size)

    def function(self, name: str) -> Function:
        """Look a function up by name (through the index once built)."""
        fid = self._func_ids.get(name)
        if fid is not None:
            return self.functions[fid]
        for func in self.functions:
            if func.name == name:
                return func
        raise ProgramError(f"no function named {name!r}")

    def function_id(self, name: str) -> int:
        """Dense id of a function (requires finalization)."""
        self._require_finalized()
        try:
            return self._func_ids[name]
        except KeyError:
            raise ProgramError(f"no function named {name!r}") from None

    def function_names(self) -> list[str]:
        """Function names in layout order."""
        return [f.name for f in self.functions]

    def block(self, label: str) -> BasicBlock:
        """Look a block up by label (requires finalization)."""
        self._require_finalized()
        try:
            return self._label_to_block[label]
        except KeyError:
            raise ProgramError(f"no block labelled {label!r}") from None

    def block_index_at(self, address: int) -> int:
        """Return the index of the block containing ``address``.

        Raises :class:`ProgramError` if the address falls in an alignment gap
        or outside the program.
        """
        tables = self.tables
        pos = int(np.searchsorted(tables.block_start_addr, address, side="right")) - 1
        if pos < 0 or address >= tables.block_end_addr[pos]:
            raise ProgramError(f"address {address:#x} maps to no block")
        return pos

    def block_indices_at(self, addresses: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`block_index_at`; unmapped addresses yield -1."""
        tables = self.tables
        pos = np.searchsorted(tables.block_start_addr, addresses, side="right") - 1
        pos = pos.astype(np.int64)
        bad = (pos < 0) | (addresses >= tables.block_end_addr[np.maximum(pos, 0)])
        pos[bad] = -1
        return pos

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finalized" if self._finalized else "building"
        return (
            f"<Program {self.name!r}: {len(self.functions)} functions, "
            f"{state}>"
        )
