"""Counted-loop lane vectorization for the interpreter's driver.

The driver (:func:`repro.cpu.interpreter.run_program`) steps one basic
block at a time.  Hot workloads spend almost all of their time in counted
loops whose control decisions are pure functions of the iteration index and
the (read-only, per-iteration) data segment.  This module detects such
loops at run time, analyses one loop body symbolically, and then evaluates
*many iterations at once* ("lanes") with NumPy: one int64 array per
predicate, one boolean mask per body node, and a single ravel to
materialize the dynamic block sequence for thousands of iterations.

Soundness model
---------------
The analysis never guesses.  A loop body is converted into an acyclic graph
of ``(block, inlined call stack)`` nodes; registers are classified from the
symbolic transfer functions:

* **invariant** — never written in the body; folded to the concrete entry
  value (recorded, and re-validated before every reuse of the analysis);
* **affine** — advances by the same constant on every path (loop counters);
  its value in lane ``t`` is ``v0 + t*d``;
* **accumulator** — every write is "old value + constant"; reconstructed
  from per-node visit counts, never used inside decisions;
* **carried** — recomputed every iteration from evaluable expressions
  (loads, affine counters, invariants); its entry value in lane ``t`` is its
  final value in lane ``t-1``;
* **opaque** — anything else.  Opaque values poison every expression they
  touch.

A decision (conditional branch or indirect-call selector) is vectorized only
if its expression is opaque-free *and* exact interval bounds prove every
intermediate fits in int64 with NumPy semantics equal to the interpreter's
unbounded-Python semantics.  Any node that fails — unsupported opcode,
store, potential overflow, an edge leaving the loop — becomes *terminal*:
the first lane whose path reaches a terminal node truncates the batch, and
the driver's block steps resume exactly there with a fully reconstructed
register file.  Lanes never run ahead of a store or an unproven value, so
the emitted block sequence is bit-identical to stepping every block.
"""

from __future__ import annotations

import numpy as np

from repro.isa.block import BlockKind
from repro.isa.opcodes import Opcode

_U64 = 0xFFFF_FFFF_FFFF_FFFF
_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1

#: Expansion caps: bodies larger than this fall back to plain interpretation.
_MAX_NODES = 256
_MAX_STACK = 12
#: Lanes evaluated per batch (iterations per vector pass).
MAX_LANES = 4096

_CMP_OPS = {
    Opcode.BEQ: "==", Opcode.BEQI: "==",
    Opcode.BNE: "!=", Opcode.BNEI: "!=",
    Opcode.BLT: "<", Opcode.BLTI: "<",
    Opcode.BGE: ">=", Opcode.BGEI: ">=",
}


class _NotVectorizable(Exception):
    """Raised during evaluation when a value cannot be proven int64-exact."""


# ---------------------------------------------------------------------------
# Expression IR: plain tuples, interned by structural equality.
#
#   ("const", v)           ("entry", reg)          ("opaque", serial)
#   ("phi", node, core)    ("load", addr, imm)
#   ("add"|"sub"|"mulm"|"and"|"or"|"xor", a, b)
#   ("shlm"|"shr"|"divc"|"modc", a, k)
#
# "mulm"/"shlm" carry the interpreter's &U64 masking; they are only
# evaluated when bounds prove the mask is a no-op.
# ---------------------------------------------------------------------------

def _const(v: int):
    return ("const", v)


def _peel(e):
    """Split ``e`` into ``(core, c)`` with ``e == core + c``."""
    if e[0] == "const":
        return ("const", 0), e[1]
    if e[0] == "add" and e[2][0] == "const":
        return e[1], e[2][1]
    return e, 0


def _add(a, b):
    if a[0] == "const" and b[0] == "const":
        return _const(a[1] + b[1])
    if a[0] == "const":
        a, b = b, a
    if b[0] == "const":
        if b[1] == 0:
            return a
        core, c = _peel(a)
        if c:
            return _add(core, _const(c + b[1]))
        return ("add", a, b)
    return ("add", a, b)


def _sub(a, b):
    if b[0] == "const":
        return _add(a, _const(-b[1]))
    if a == b:
        return _const(0)
    return ("sub", a, b)


def _binop(tag, a, b, fold):
    if a[0] == "const" and b[0] == "const":
        return _const(fold(a[1], b[1]))
    return (tag, a, b)


class _Sym:
    """Symbolic evaluator for one block's semantic instructions."""

    def __init__(self, analysis: "_LoopAnalysis", state: dict):
        self.an = analysis
        self.state = state
        self.poison_reason: str | None = None
        #: Net "+constant" increments applied per register in this node,
        #: or None once a register saw a non-increment write.
        self.incs: dict[int, int | None] = {}

    def read(self, reg: int):
        if reg in self.state:
            return self.state[reg]
        return self.an.entry_expr(reg)

    def write(self, reg: int, expr):
        old = self.read(reg)
        oc, ok = _peel(old)
        nc, nk = _peel(expr)
        # Structural core equality is value equality: opaque leaves carry
        # unique serials and phi markers are keyed by (join, register).
        if oc == nc:
            if self.incs.get(reg, 0) is not None:
                self.incs[reg] = self.incs.get(reg, 0) + (nk - ok)
        else:
            self.incs[reg] = None
        self.state[reg] = expr

    def run_block(self, block) -> None:
        body = block.instructions[:-1] if block.terminator is not None \
            else block.instructions
        dlen = self.an.dlen
        for ins in body:
            op = ins.opcode
            d, s1, s2, imm = ins.dst, ins.src1, ins.src2, ins.imm
            if op is Opcode.LI:
                self.write(d, _const(imm))
            elif op is Opcode.MOV:
                self.write(d, self.read(s1))
            elif op is Opcode.ADD:
                self.write(d, _add(self.read(s1), self.read(s2)))
            elif op is Opcode.ADDI:
                self.write(d, _add(self.read(s1), _const(imm)))
            elif op is Opcode.SUB:
                self.write(d, _sub(self.read(s1), self.read(s2)))
            elif op is Opcode.SUBI:
                self.write(d, _add(self.read(s1), _const(-imm)))
            elif op is Opcode.MUL:
                self.write(d, _binop("mulm", self.read(s1), self.read(s2),
                                     lambda a, b: (a * b) & _U64))
            elif op is Opcode.DIV:
                den = self.read(s2)
                num = self.read(s1)
                if den[0] == "const":
                    c = den[1]
                    if c == 0:
                        self.write(d, _const(0))
                    elif c == 1:
                        self.write(d, num)
                    elif num[0] == "const":
                        self.write(d, _const(num[1] // c))
                    else:
                        self.write(d, ("divc", num, c))
                else:
                    self.write(d, self.an.opaque())
            elif op is Opcode.AND:
                self.write(d, _binop("and", self.read(s1), self.read(s2),
                                     lambda a, b: a & b))
            elif op is Opcode.OR:
                self.write(d, _binop("or", self.read(s1), self.read(s2),
                                     lambda a, b: a | b))
            elif op is Opcode.XOR:
                self.write(d, _binop("xor", self.read(s1), self.read(s2),
                                     lambda a, b: a ^ b))
            elif op is Opcode.SHL:
                k = imm % 64 if imm else 0
                a = self.read(s1)
                if a[0] == "const":
                    self.write(d, _const((a[1] << k) & _U64))
                else:
                    self.write(d, ("shlm", a, k))
            elif op is Opcode.SHR:
                k = imm % 64 if imm else 0
                a = self.read(s1)
                if a[0] == "const":
                    self.write(d, _const(a[1] >> k))
                else:
                    self.write(d, ("shr", a, k))
            elif op is Opcode.MODI:
                m = imm if imm else 0
                a = self.read(s1)
                if m == 0:
                    self.write(d, _const(0))
                elif a[0] == "const":
                    self.write(d, _const(a[1] % m))
                else:
                    self.write(d, ("modc", a, m))
            elif op in (Opcode.LOAD, Opcode.LOADL, Opcode.LOADM):
                _ = dlen  # addressing is reduced modulo dlen at eval time
                self.write(d, ("load", self.read(s1), imm or 0))
            elif op is Opcode.STORE:
                # Stores would invalidate every lane evaluated after them.
                self.poison_reason = "store"
                return
            # FADD/FMUL/FDIV/NOP: timing-only, no semantics.


class _Node:
    __slots__ = ("block_index", "stack", "succs", "terminal", "state",
                 "preds_seen", "topo", "decision")

    def __init__(self, block_index: int, stack: tuple):
        self.block_index = block_index
        self.stack = stack
        #: list of (edge_kind, payload); edge_kind in
        #: {"one", "cond", "icall"}.  Targets are node ids, BACK, or TERM.
        self.succs = None
        self.terminal = False
        self.state = None
        self.preds_seen = 0
        self.topo = -1
        self.decision = None


BACK = -1   # edge returning to the loop header (iteration boundary)
TERM = -2   # edge leaving the vectorized region (lane truncates there)


class _LoopAnalysis:
    """One loop body, analysed at a concrete register state."""

    def __init__(self, program, header: int, regs: list):
        self.program = program
        self.header = header
        self.dlen = int(program.data.size)
        self.tables = program.tables
        self.ok = False
        self._opaque_serial = 0
        #: Entry values folded into the analysis; re-validated before reuse.
        self.inv_read: dict[int, int] = {}
        self._regs = regs
        self._written: set[int] = set()
        try:
            self._build_graph()
            if self.ok:
                self._symbolic_pass()
        except _NotVectorizable:
            self.ok = False
        # The driver caches analyses beside a weakly held program; a
        # kept reference to it (or to the run's registers) would pin both.
        del self.program, self._regs

    # -- helpers used by _Sym ---------------------------------------------

    def opaque(self):
        self._opaque_serial += 1
        return ("opaque", self._opaque_serial)

    def entry_expr(self, reg: int):
        if reg in self._written:
            return ("entry", reg)
        value = self._regs[reg]
        if not isinstance(value, int):
            # A deferred (opaque) value from an earlier loop: unusable as a
            # folded constant.
            return self.opaque()
        self.inv_read[reg] = value
        return _const(value)

    # -- pass A: structure --------------------------------------------------

    def _build_graph(self) -> None:
        tables = self.tables
        blocks = self.program.blocks
        kinds = tables.block_kind
        fall = tables.fall_next
        taken = tables.taken_target
        key_to_id: dict = {}
        nodes: list[_Node] = []

        def intern(block_index: int, stack: tuple) -> int:
            if block_index == self.header and not stack:
                return BACK
            if len(stack) > _MAX_STACK or len(nodes) >= _MAX_NODES:
                return TERM
            key = (block_index, stack)
            nid = key_to_id.get(key)
            if nid is None:
                nid = len(nodes)
                key_to_id[key] = nid
                nodes.append(_Node(block_index, stack))
                worklist.append(nid)
            return nid

        worklist: list[int] = []
        root = _Node(self.header, ())
        nodes.append(root)
        key_to_id[(self.header, ())] = 0
        worklist.append(0)

        while worklist:
            nid = worklist.pop()
            node = nodes[nid]
            b = node.block_index
            kind = BlockKind(int(kinds[b]))
            stack = node.stack
            if kind is BlockKind.FALL:
                node.succs = [("one", intern(int(fall[b]), stack))]
            elif kind is BlockKind.JMP:
                node.succs = [("one", intern(int(taken[b]), stack))]
            elif kind is BlockKind.COND:
                node.succs = [("cond",
                               (intern(int(taken[b]), stack),
                                intern(int(fall[b]), stack)))]
            elif kind is BlockKind.CALL:
                node.succs = [("one", intern(int(taken[b]),
                                             stack + (int(fall[b]),)))]
            elif kind is BlockKind.ICALL:
                term = blocks[b].terminator
                entries = tuple(
                    self.program.function(name).entry.index
                    for name in term.itable
                )
                targets = tuple(
                    intern(e, stack + (int(fall[b]),)) for e in entries
                )
                node.succs = [("icall", targets)]
            elif kind is BlockKind.RET:
                if stack:
                    node.succs = [("one", intern(stack[-1], stack[:-1]))]
                else:
                    # Pops past the loop frame: structure depends on the
                    # caller's runtime stack, so lanes stop here.
                    node.succs = [("one", TERM)]
                    node.terminal = True
            else:  # HALT
                node.succs = [("one", TERM)]
                node.terminal = True

        self.nodes = nodes
        self._finish_graph()

    def _edge_targets(self, node: _Node):
        kind, payload = node.succs[0]
        if kind == "one":
            return (payload,)
        return tuple(payload)

    def _finish_graph(self) -> None:
        """Topologically order the acyclic core; everything else is TERM."""
        nodes = self.nodes
        n = len(nodes)
        indeg = [0] * n
        for node in nodes:
            for t in self._edge_targets(node):
                if t >= 0:
                    indeg[t] += 1
        # Kahn from the header; nodes left over sit on cycles (inner loops)
        # and become terminal.
        order: list[int] = []
        ready = [i for i in range(n) if indeg[i] == 0]
        while ready:
            nid = ready.pop()
            order.append(nid)
            for t in self._edge_targets(nodes[nid]):
                if t >= 0:
                    indeg[t] -= 1
                    if indeg[t] == 0:
                        ready.append(t)
        acyclic = set(order)
        # Reverse reachability of BACK over the acyclic part: only nodes that
        # can complete an iteration are worth vectorizing.
        reaches = set()
        for nid in reversed(order):
            node = nodes[nid]
            for t in self._edge_targets(node):
                if t == BACK or (t in reaches):
                    reaches.add(nid)
                    break
        if 0 not in reaches or 0 not in acyclic:
            self.ok = False
            return
        interior = [nid for nid in order if nid in reaches]
        for pos, nid in enumerate(interior):
            nodes[nid].topo = pos
        # Rewrite edges: anything outside the interior is a lane terminator.
        for nid in interior:
            node = nodes[nid]
            kind, payload = node.succs[0]

            def fix(t):
                if t == BACK:
                    return BACK
                if t >= 0 and nodes[t].topo >= 0:
                    return t
                return TERM

            if kind == "one":
                node.succs = [("one", fix(payload))]
            elif kind == "cond":
                node.succs = [("cond", (fix(payload[0]), fix(payload[1])))]
            else:
                node.succs = [("icall", tuple(fix(t) for t in payload))]
        self.interior = interior
        self.ok = True

    # -- pass B: symbolics ---------------------------------------------------

    def _symbolic_pass(self) -> None:
        nodes = self.nodes
        blocks = self.program.blocks
        # Registers written anywhere in the interior (determines which entry
        # reads stay symbolic).
        for nid in self.interior:
            block = blocks[nodes[nid].block_index]
            body = block.instructions[:-1] if block.terminator is not None \
                else block.instructions
            for ins in body:
                if ins.opcode in (Opcode.LI, Opcode.MOV, Opcode.ADD,
                                  Opcode.ADDI, Opcode.SUB, Opcode.SUBI,
                                  Opcode.MUL, Opcode.DIV, Opcode.AND,
                                  Opcode.OR, Opcode.XOR, Opcode.SHL,
                                  Opcode.SHR, Opcode.MODI, Opcode.LOAD,
                                  Opcode.LOADL, Opcode.LOADM):
                    self._written.add(ins.dst)

        #: Per-node, per-register "+const" increments (for accumulators).
        self.node_incs: dict[int, dict[int, int | None]] = {}
        #: Registers that ever saw a non-increment write.
        broken_acc: set[int] = set()
        final_state: dict | None = None
        entry_states: dict[int, dict] = {0: {}}

        for nid in self.interior:
            node = nodes[nid]
            state = entry_states.pop(nid, None)
            if state is None:
                # Unreachable from the header inside the interior (can
                # happen when every path to it was rewritten to TERM).
                node.terminal = True
                node.succs = [("one", TERM)]
                continue
            block = blocks[node.block_index]
            sym = _Sym(self, dict(state))
            sym.run_block(block)
            if sym.poison_reason is not None:
                node.terminal = True
                node.succs = [("one", TERM)]
                continue
            self.node_incs[nid] = sym.incs
            for reg, inc in sym.incs.items():
                if inc is None:
                    broken_acc.add(reg)
            kind, payload = node.succs[0]
            if kind == "cond":
                term = block.terminator
                rhs = _const(term.imm) if term.uses_immediate_compare \
                    else sym.read(term.src2)
                node.decision = (_CMP_OPS[term.opcode],
                                 sym.read(term.src1), rhs)
            elif kind == "icall":
                term = block.terminator
                node.decision = ("modc", sym.read(term.src1),
                                 len(payload))

            for target in self._edge_targets(node):
                if target == BACK:
                    final_state = self._merge(final_state, sym.state, nid)
                elif target >= 0:
                    entry_states[target] = self._merge(
                        entry_states.get(target), sym.state, nid
                    )

        if final_state is None:
            self.ok = False
            return

        # Classification.
        self.affine: dict[int, int] = {}
        self.acc: set[int] = set()
        self.carried: dict[int, tuple] = {}
        for reg in sorted(self._written):
            final = final_state.get(reg, ("entry", reg))
            core, c = _peel(final)
            if core == ("entry", reg):
                self.affine[reg] = c
            elif reg not in broken_acc:
                self.acc.add(reg)
            else:
                self.carried[reg] = final
        self.node_blocks = np.array(
            [nodes[nid].block_index for nid in self.interior],
            dtype=np.int32,
        )
        self.node_sizes = self.tables.block_sizes[self.node_blocks] \
            .astype(np.int64)

    def _merge(self, into: dict | None, state: dict, nid: int) -> dict:
        if into is None:
            return dict(state)
        merged = dict(into)
        for reg in set(into) | set(state):
            a = into.get(reg, ("entry", reg))
            b = state.get(reg, ("entry", reg))
            if a == b:
                merged[reg] = a
                continue
            ca, _ka = _peel(a)
            cb, _kb = _peel(b)
            # Compare cores modulo a phi already minted at this join for
            # this register (idempotent across 3+ predecessors).
            mark = ("phi", nid, reg)
            if ca[:3] == mark:
                ca = ca[3]
            if cb[:3] == mark:
                cb = cb[3]
            if ca == cb:
                # Same core, path-dependent constants: representable as an
                # accumulator contribution, opaque to expressions.  Keyed by
                # (join, register) so distinct registers never alias.
                merged[reg] = mark + (ca,)
            else:
                merged[reg] = self.opaque()
        return merged

    # -- runtime -------------------------------------------------------------

    def valid_for(self, regs: list) -> bool:
        """The folded entry values still hold."""
        return all(
            isinstance(regs[r], int) and regs[r] == v
            for r, v in self.inv_read.items()
        )

    def run_batch(self, regs: list, data: np.ndarray, max_lanes: int):
        """Evaluate up to ``max_lanes`` complete iterations.

        Returns ``(block_chunk, n_blocks, n_iterations)`` or ``None`` when
        no full iteration could be vectorized.  ``n_iterations`` is how many
        of the ``max_lanes`` lanes were live — the caller's width ramp keys
        off it (a full batch earns a wider retry, a partial one proves the
        loop ended).  ``regs`` is updated in place to the register file at
        the entry of the first un-emitted iteration; irrecoverable (opaque)
        registers are set to :data:`OPAQUE_REG`.  Fuel accounting is the
        caller's job via ``n_blocks``.
        """
        T = int(max_lanes)
        if T <= 0:
            return None
        ev = _BatchEval(self, regs, data, T)
        nodes = self.nodes
        masks: dict[int, np.ndarray] = {
            0: np.ones(T, dtype=bool)
        }
        back_mask = np.zeros(T, dtype=bool)
        stop_mask = np.zeros(T, dtype=bool)

        def land(target, mask):
            if target == BACK:
                np.logical_or(back_mask, mask, out=back_mask)
            elif target == TERM:
                np.logical_or(stop_mask, mask, out=stop_mask)
            else:
                prev = masks.get(target)
                if prev is None:
                    masks[target] = mask.copy()
                else:
                    np.logical_or(prev, mask, out=prev)

        node_masks = []
        for nid in self.interior:
            node = nodes[nid]
            mask = masks.pop(nid, None)
            if mask is None:
                mask = np.zeros(T, dtype=bool)
            node_masks.append(mask)
            if not mask.any():
                continue
            kind, payload = node.succs[0]
            if kind == "one":
                land(payload, mask)
            elif kind == "cond":
                try:
                    pred = ev.compare(node.decision)
                except _NotVectorizable:
                    np.logical_or(stop_mask, mask, out=stop_mask)
                    continue
                land(payload[0], mask & pred)
                land(payload[1], mask & ~pred)
            else:  # icall
                try:
                    sel = ev.values(node.decision)
                except _NotVectorizable:
                    np.logical_or(stop_mask, mask, out=stop_mask)
                    continue
                for j, target in enumerate(payload):
                    land(target, mask & (sel == j))

        stops = np.flatnonzero(stop_mask)
        t_live = int(stops[0]) if stops.size else T
        if t_live <= 0:
            return None

        n_interior = len(self.interior)
        if all(mask[:t_live].all() for mask in node_masks):
            # Straight-line body: every lane visits every node, so the
            # sequence is the topo-ordered block pattern tiled per lane —
            # no mask matrix needed.
            counts = np.full(n_interior, t_live, dtype=np.int64)
            n_blocks = n_interior * t_live
            chunk = np.tile(self.node_blocks, t_live)
        else:
            # Lane-major mask matrix, built transposed so the ravel below
            # is a view (stacking node-major and transposing would copy the
            # full ``max_lanes`` width even for a mostly-dead batch).
            M = np.empty((t_live, n_interior), dtype=bool)
            for pos, mask in enumerate(node_masks):
                M[:, pos] = mask[:t_live]
            counts = M.sum(axis=0)
            n_blocks = int(counts.sum())

            # Emission: topological order is a linear extension of every
            # path, so a lane's visited nodes, read in topo order, are its
            # execution order.  A lane-major ravel of the mask matrix
            # therefore yields the dynamic block sequence directly.
            flat = np.flatnonzero(M.ravel())
            chunk = self.node_blocks[flat % n_interior]

        # Advance the register file to the entry of the first un-emitted
        # iteration (affine/accumulator registers exactly; carried registers
        # from their final-value expressions; anything else is deferred).
        carried_vals = []
        for reg, final in self.carried.items():
            try:
                vals = ev.values(final)
                carried_vals.append((reg, int(vals[t_live - 1])))
            except _NotVectorizable:
                carried_vals.append((reg, OPAQUE_REG))
        for reg, d in self.affine.items():
            if d:
                regs[reg] = regs[reg] + t_live * d
        for reg in self.acc:
            total = 0
            for pos, nid in enumerate(self.interior):
                inc = self.node_incs.get(nid, {}).get(reg, 0)
                if inc:
                    total += inc * int(counts[pos])
            regs[reg] = regs[reg] + total
        for reg, value in carried_vals:
            regs[reg] = value
        return chunk, n_blocks, t_live


class _OpaqueRegister:
    """Poison value for a deferred loop-carried register.

    Pure arithmetic *propagates* the poison (the result is just as
    deferred), so dead dataflow costs nothing.  Any use that could steer
    control flow, address memory, or escape the register file — boolean
    tests, comparisons, index/int conversion — traps, forcing the caller's
    exact fallback.  That split keeps the fast path exact: a deferred value
    can never influence anything observable without raising first.
    """

    __slots__ = ()

    def _trap(self, *a, **k):
        raise OpaqueRegisterRead

    def _poison(self, *a, **k):
        return self

    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = _poison
    __floordiv__ = __rfloordiv__ = __mod__ = __rmod__ = _poison
    __and__ = __rand__ = __or__ = __ror__ = __xor__ = __rxor__ = _poison
    __lshift__ = __rlshift__ = __rshift__ = __rrshift__ = _poison
    __neg__ = __pos__ = __invert__ = _poison
    __bool__ = __index__ = __int__ = _trap
    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _trap
    __hash__ = object.__hash__

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<opaque>"


class OpaqueRegisterRead(Exception):
    """A deferred register value was touched; rerun exactly."""


#: Singleton poison value left in the register file for opaque registers.
OPAQUE_REG = _OpaqueRegister()


class _BatchEval:
    """Vectorized, bounds-checked evaluation of expressions over lanes."""

    def __init__(self, analysis: _LoopAnalysis, regs: list,
                 data: np.ndarray, T: int):
        self.an = analysis
        self.regs = regs
        self.data = data
        self.T = T
        self.t = None  # lazily built iteration-index array
        self.dmin = None
        self.dmax = None
        self.memo: dict = {}
        self._entry_stack: set = set()

    # Values are (array_or_int, lo, hi); scalars stay Python ints so that
    # constant subtrees fold with exact unbounded arithmetic.

    def _chk(self, lo: int, hi: int) -> None:
        if lo < _I64_MIN or hi > _I64_MAX:
            raise _NotVectorizable

    def _lane_index(self):
        if self.t is None:
            self.t = np.arange(self.T, dtype=np.int64)
        return self.t

    def _data_bounds(self):
        if self.dmin is None:
            if self.data.size:
                self.dmin = int(self.data.min())
                self.dmax = int(self.data.max())
            else:
                self.dmin = self.dmax = 0
        return self.dmin, self.dmax

    def _eval(self, e):
        got = self.memo.get(e)
        if got is not None:
            return got
        tag = e[0]
        if tag == "const":
            v = e[1]
            self._chk(v, v)
            out = (v, v, v)
        elif tag == "entry":
            out = self._entry(e[1])
        elif tag in ("opaque", "phi"):
            raise _NotVectorizable
        elif tag == "load":
            out = self._load(e)
        elif tag in ("shlm", "shr", "divc", "modc"):
            out = self._unary(e)
        else:
            out = self._binary(e)
        self.memo[e] = out
        return out

    def _entry(self, reg: int):
        an = self.an
        if reg in an.affine:
            v0 = self.regs[reg]
            if isinstance(v0, _OpaqueRegister):
                raise _NotVectorizable
            d = an.affine[reg]
            last = v0 + (self.T - 1) * d
            self._chk(min(v0, last), max(v0, last))
            if d == 0:
                return (v0, v0, v0)
            vals = v0 + self._lane_index() * d
            return (vals, min(v0, last), max(v0, last))
        if reg in an.carried:
            if reg in self._entry_stack:
                raise _NotVectorizable  # self-referential carry
            v0 = self.regs[reg]
            if isinstance(v0, _OpaqueRegister):
                raise _NotVectorizable
            self._entry_stack.add(reg)
            try:
                fin, lo, hi = self._eval(an.carried[reg])
            finally:
                self._entry_stack.discard(reg)
            self._chk(min(lo, v0), max(hi, v0))
            vals = np.empty(self.T, dtype=np.int64)
            vals[0] = v0
            if self.T > 1:
                vals[1:] = fin[:-1] if isinstance(fin, np.ndarray) else fin
            return (vals, min(lo, v0), max(hi, v0))
        raise _NotVectorizable  # accumulator or unclassified

    def _load(self, e):
        addr, lo, hi = self._eval(e[1])
        imm = e[2]
        self._chk(imm, imm)  # NumPy adds it to an int64 array
        self._chk(lo + imm, hi + imm)
        dlen = self.an.dlen
        if isinstance(addr, int):
            idx = (addr + imm) % dlen
            v = int(self.data[idx])
            return (v, v, v)
        idx = (addr + imm) % dlen
        vals = self.data[idx]
        dmin, dmax = self._data_bounds()
        return (vals, dmin, dmax)

    def _unary(self, e):
        tag, a, k = e
        va, lo, hi = self._eval(a)
        if tag == "shlm":
            # (a << k) & U64 == a << k only for provably small non-negatives.
            if lo < 0:
                raise _NotVectorizable
            self._chk(lo << k, hi << k)
            return (va << k, lo << k, hi << k)
        if tag == "shr":
            return (va >> k, lo >> k, hi >> k)
        self._chk(k, k)  # a divisor from an immediate or a register
        if tag == "divc":
            ends = (lo // k, hi // k)
            self._chk(min(ends), max(ends))  # I64_MIN // -1 does not fit
            out = va // k
            return (out, min(ends), max(ends))
        # modc: k != 0 by construction, and the result takes k's sign.
        if k < 0:
            return (va % k, k + 1, 0)
        return (va % k, 0, k - 1)

    def _binary(self, e):
        tag, a, b = e
        va, lo1, hi1 = self._eval(a)
        vb, lo2, hi2 = self._eval(b)
        if tag == "add":
            self._chk(lo1 + lo2, hi1 + hi2)
            return (va + vb, lo1 + lo2, hi1 + hi2)
        if tag == "sub":
            self._chk(lo1 - hi2, hi1 - lo2)
            return (va - vb, lo1 - hi2, hi1 - lo2)
        if tag == "mulm":
            # (a*b) & U64 == a*b only when the product provably stays in
            # [0, 2**63): the mask is a no-op and NumPy cannot wrap.
            corners = (lo1 * lo2, lo1 * hi2, hi1 * lo2, hi1 * hi2)
            lo, hi = min(corners), max(corners)
            if lo < 0 or hi > _I64_MAX:
                raise _NotVectorizable
            return (va * vb, lo, hi)
        # Bitwise ops: Python's unbounded two's complement agrees with int64
        # two's complement for any in-range operands, so no value check is
        # needed — only the *bounds* degrade when signs are involved.
        if lo1 >= 0 and lo2 >= 0:
            if tag == "and":
                return (va & vb, 0, min(hi1, hi2))
            width = max(hi1.bit_length(), hi2.bit_length())
            bound = (1 << width) - 1
            if tag == "or":
                return (va | vb, 0, bound)
            return (va ^ vb, 0, bound)
        op = {"and": lambda x, y: x & y,
              "or": lambda x, y: x | y,
              "xor": lambda x, y: x ^ y}[tag]
        return (op(va, vb), _I64_MIN, _I64_MAX)

    def values(self, e) -> np.ndarray:
        v, _, _ = self._eval(e)
        if isinstance(v, int):
            return np.full(self.T, v, dtype=np.int64)
        return v

    def compare(self, decision) -> np.ndarray:
        op, a, b = decision
        va = self.values(a)
        vb, _, _ = self._eval(b)
        if op == "==":
            return va == vb
        if op == "!=":
            return va != vb
        if op == "<":
            return va < vb
        return va >= vb


def loop_header_candidates(program) -> frozenset:
    """Static back-edge targets: blocks worth watching for loop entry."""
    tables = program.tables
    out = set()
    kinds = tables.block_kind
    taken = tables.taken_target
    func = tables.block_func
    for b in range(len(kinds)):
        k = int(kinds[b])
        if k in (int(BlockKind.JMP), int(BlockKind.COND)):
            t = int(taken[b])
            if 0 <= t <= b and func[t] == func[b]:
                out.add(t)
    return frozenset(out)


def analyze_loop(program, header: int, regs: list) -> _LoopAnalysis | None:
    """Analyse the loop at ``header`` against the concrete entry state."""
    analysis = _LoopAnalysis(program, header, regs)
    return analysis if analysis.ok else None
