"""Parameterized synthetic-application generator.

An application is a two-phase artifact:

1. :func:`generate_structure` draws a static call tree and per-function
   segment plans (work blocks, data-driven tests, small counted loops,
   calls) from an :class:`AppProfile` with a seeded RNG — this fixes the
   program's *shape*.
2. :func:`emit_program` lowers the plans to a synthetic-ISA program for a
   given outer-loop iteration count.

:func:`build_app` calibrates: it emits the work functions once, runs a
pilot over them to measure instructions per outer iteration, then derives
the final program from the pilot with a ``main`` sized to the profile's
target dynamic instruction count. Pilot and final program differ only in
the outer count, so they share their functions, their layout and their
compiled blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cpu.interpreter import run_program, share_steps
from repro.errors import WorkloadError
from repro.isa.builder import FunctionBuilder, ProgramBuilder
from repro.isa.function import Function
from repro.isa.program import Program

#: Register conventions (kept clear of the builder's scratch registers).
_R_N = 0          # main loop counter
_R_IDX = 1        # data index (increments per outer iteration)
_R_VAL = 2        # per-iteration random word
_R_SEL = 3        # dispatch selector
_R_MASKFF = 4     # constant 0xFF
_R_T1 = 5         # test scratch
_R_T2 = 6         # test scratch
_R_ACC = 7        # accumulator
_R_SLOTMASK = 9   # constant _DISPATCH_SLOTS - 1
_R_LOOP_BASE = 10  # loop counters, one per call level
_R_WORK = 24      # work-block scratch registers _R_WORK.._R_WORK+3

_DATA_SIZE = 32768
_DISPATCH_SLOTS = 128  # a power of two so the selector is a cheap AND
_PILOT_ITERATIONS = 256

#: Work-block instruction kinds and the builder methods that emit them.
_KIND_NAMES = ("alu", "fp_add", "fp_mul", "mul", "div", "load_l1",
               "load_llc", "load_dram")


@dataclass(frozen=True)
class AppProfile:
    """Structural knobs for one synthetic application."""

    name: str
    description: str
    n_functions: int              # top-level + nested work functions
    levels: int                   # call-tree depth below the dispatcher
    zipf_exponent: float          # hotness skew of top-level dispatch
    block_size: tuple[int, int]   # work-block size range (instructions)
    tests_per_function: tuple[int, int]
    taken_bias: tuple[int, int]   # test threshold range out of 256
    p_loop: float                 # chance a function has a counted loop
    loop_trips: tuple[int, int]
    p_call: float                 # chance of a call segment per function
    mix: dict[str, float]         # work instruction-kind weights
    loop_body_tests: int = 1      # max data-driven tests inside a loop body
    target_instructions: int = 3_000_000

    def __post_init__(self) -> None:
        if self.n_functions < 2 or self.levels < 1:
            raise WorkloadError(f"{self.name}: degenerate structure")
        unknown = set(self.mix) - set(_KIND_NAMES)
        if unknown:
            raise WorkloadError(f"{self.name}: unknown mix kinds {unknown}")
        if not self.mix:
            raise WorkloadError(f"{self.name}: empty instruction mix")


# -- structure plans ---------------------------------------------------------


@dataclass
class WorkPlan:
    """A straight-line work block."""

    kinds: list[str]


@dataclass
class TestPlan:
    """A data-driven conditional: test block + conditionally-executed work."""

    data_offset: int
    threshold: int        # taken if (data & 0xFF) >= threshold -> skip work
    work: WorkPlan


@dataclass
class LoopPlan:
    """A counted inner loop; the body may span several blocks (work
    segments separated by data-driven tests)."""

    trips: int
    body: list[object]  # WorkPlan | TestPlan


@dataclass
class CallPlan:
    """A static call to a deeper function."""

    callee: str


@dataclass
class FunctionPlan:
    """One generated function: its level and ordered segments."""

    name: str
    level: int
    segments: list[object] = field(default_factory=list)


@dataclass
class AppStructure:
    """The full static shape of a generated application."""

    profile: AppProfile
    functions: list[FunctionPlan]
    dispatch_table: list[str]     # top-level function per dispatch slot
    data: np.ndarray


def _mix_cdf(profile: AppProfile) -> tuple[list[str], np.ndarray]:
    """The profile's work kinds and the cumulative distribution of their
    normalized weights, built as ``Generator.choice`` builds it from
    ``p``: a cumulative sum divided by its last entry."""
    names = list(profile.mix)
    weights = np.asarray([profile.mix[k] for k in names], dtype=np.float64)
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return names, cdf


def _draw_work(profile: AppProfile, rng: np.random.Generator,
               mix: tuple[list[str], np.ndarray]) -> WorkPlan:
    lo, hi = profile.block_size
    size = int(rng.integers(lo, hi + 1))
    names, cdf = mix
    # rng.choice(len(names), size=size, p=weights) draws these very
    # indices from the same random numbers, but validates p and rebuilds
    # its CDF on every call.
    return WorkPlan(kinds=[names[i] for i in
                           cdf.searchsorted(rng.random(size), side="right")])


def generate_structure(
    profile: AppProfile, seed: int
) -> AppStructure:
    """Draw the static shape of an application (deterministic in seed)."""
    rng = np.random.default_rng(seed)
    mix = _mix_cdf(profile)

    # Partition functions across levels: level 0 is the dispatch surface,
    # deeper levels shrink geometrically.
    level_sizes: list[int] = []
    remaining = profile.n_functions
    for level in range(profile.levels):
        if level == profile.levels - 1:
            size = remaining
        else:
            size = max(1, int(round(remaining * 0.5)))
        level_sizes.append(size)
        remaining -= size
        if remaining <= 0:
            level_sizes.extend([0] * (profile.levels - level - 1))
            break

    functions: list[FunctionPlan] = []
    by_level: list[list[str]] = []
    counter = 0
    for level, size in enumerate(level_sizes):
        names = []
        for _ in range(size):
            names.append(f"fn{counter:03d}_l{level}")
            counter += 1
        by_level.append(names)

    for level, names in enumerate(by_level):
        deeper = by_level[level + 1] if level + 1 < len(by_level) else []
        for name in names:
            plan = FunctionPlan(name=name, level=level)
            plan.segments.append(_draw_work(profile, rng, mix))
            t_lo, t_hi = profile.tests_per_function
            for _ in range(int(rng.integers(t_lo, t_hi + 1))):
                plan.segments.append(TestPlan(
                    data_offset=int(rng.integers(0, _DATA_SIZE)),
                    threshold=int(rng.integers(*profile.taken_bias)),
                    work=_draw_work(profile, rng, mix),
                ))
            if deeper and rng.random() < profile.p_call:
                plan.segments.append(CallPlan(
                    callee=str(rng.choice(deeper))
                ))
            if rng.random() < profile.p_loop:
                lo, hi = profile.loop_trips
                body: list[object] = [_draw_work(profile, rng, mix)]
                for _ in range(int(rng.integers(0, profile.loop_body_tests + 1))):
                    body.append(TestPlan(
                        data_offset=int(rng.integers(0, _DATA_SIZE)),
                        threshold=int(rng.integers(*profile.taken_bias)),
                        work=_draw_work(profile, rng, mix),
                    ))
                    body.append(_draw_work(profile, rng, mix))
                plan.segments.append(LoopPlan(
                    trips=int(rng.integers(lo, hi + 1)),
                    body=body,
                ))
            # A second call site for deep-call-chain profiles.
            if deeper and rng.random() < profile.p_call / 2:
                plan.segments.append(CallPlan(
                    callee=str(rng.choice(deeper))
                ))
            plan.segments.append(_draw_work(profile, rng, mix))
            rng.shuffle(plan.segments)  # vary segment order per function
            functions.append(plan)

    # Zipf-weighted dispatch table over top-level functions.
    top = by_level[0]
    ranks = np.arange(1, len(top) + 1, dtype=np.float64)
    weights = ranks ** (-profile.zipf_exponent)
    weights /= weights.sum()
    slots = np.maximum(
        np.round(weights * _DISPATCH_SLOTS).astype(int), 0
    )
    table: list[str] = []
    for name, count in zip(top, slots):
        table.extend([name] * int(count))
    while len(table) < _DISPATCH_SLOTS:
        table.append(top[0])
    table = table[:_DISPATCH_SLOTS]

    data = rng.integers(0, 1 << 31, size=_DATA_SIZE, dtype=np.int64)
    return AppStructure(
        profile=profile, functions=functions, dispatch_table=table, data=data
    )


# -- emission -------------------------------------------------------------


def _emit_work(f: FunctionBuilder, plan: WorkPlan) -> None:
    scratch = _R_WORK
    for i, kind in enumerate(plan.kinds):
        reg = scratch + (i % 4)
        if kind == "alu":
            f.addi(reg, reg, 1)
        elif kind == "fp_add":
            f.fadd()
        elif kind == "fp_mul":
            f.fmul()
        elif kind == "mul":
            f.mul(reg, reg, _R_MASKFF)
        elif kind == "div":
            f.div(reg, reg, _R_MASKFF)
        elif kind == "load_l1":
            f.load(reg, _R_IDX, i)
        elif kind == "load_llc":
            f.loadl(reg, _R_IDX, i)
        elif kind == "load_dram":
            f.loadm(reg, _R_IDX, i)
        else:  # pragma: no cover - profiles are validated
            raise WorkloadError(f"unknown work kind {kind!r}")


def _emit_function(b: ProgramBuilder, plan: FunctionPlan) -> Function:
    f = b.function(plan.name)
    f.block("entry")
    loop_reg = _R_LOOP_BASE + min(plan.level, 13)
    open_straightline = True

    for i, seg in enumerate(plan.segments):
        if isinstance(seg, WorkPlan):
            if not open_straightline:
                f.block(f"s{i}_work")
            _emit_work(f, seg)
            open_straightline = True
        elif isinstance(seg, TestPlan):
            if not open_straightline:
                f.block(f"s{i}_test")
            f.load(_R_T1, _R_IDX, seg.data_offset)
            f.and_(_R_T1, _R_T1, _R_MASKFF)
            f.bgei(_R_T1, seg.threshold, f"s{i}_join")
            f.block(f"s{i}_taken")
            _emit_work(f, seg.work)
            f.block(f"s{i}_join")
            f.addi(_R_ACC, _R_ACC, 1)
            open_straightline = True
        elif isinstance(seg, LoopPlan):
            if not open_straightline:
                f.block(f"s{i}_loopinit")
            f.li(loop_reg, seg.trips)
            f.jmp(f"s{i}_loop")
            f.block(f"s{i}_loop")
            for j, part in enumerate(seg.body):
                if isinstance(part, WorkPlan):
                    _emit_work(f, part)
                else:  # TestPlan inside the loop body
                    f.load(_R_T1, _R_IDX, part.data_offset)
                    f.and_(_R_T1, _R_T1, _R_MASKFF)
                    f.bgei(_R_T1, part.threshold, f"s{i}b{j}_join")
                    f.block(f"s{i}b{j}_taken")
                    _emit_work(f, part.work)
                    f.block(f"s{i}b{j}_join")
                    f.addi(_R_ACC, _R_ACC, 1)
            f.subi(loop_reg, loop_reg, 1)
            f.bnei(loop_reg, 0, f"s{i}_loop")
            open_straightline = False
        elif isinstance(seg, CallPlan):
            if not open_straightline:
                f.block(f"s{i}_call")
            f.call(seg.callee)
            open_straightline = False
        else:  # pragma: no cover - plans are closed
            raise WorkloadError(f"unknown segment {seg!r}")

    if not open_straightline:
        f.block("fini")
    f.addi(_R_ACC, _R_ACC, 1)
    f.ret()
    return f.function


def _emit_functions(structure: AppStructure) -> list[Function]:
    """The work functions, in layout order after ``main``."""
    b = ProgramBuilder(structure.profile.name)
    return [_emit_function(b, plan) for plan in structure.functions]


def _emit_main(structure: AppStructure, iterations: int) -> Function:
    """The dispatch loop: ``iterations`` outer iterations, each calling
    one work function through the dispatch table."""
    if iterations < 1:
        raise WorkloadError(f"iterations must be >= 1, got {iterations}")
    main = ProgramBuilder(structure.profile.name).function("main")
    main.block("entry")
    main.li(_R_N, iterations)
    main.li(_R_IDX, 0)
    main.li(_R_MASKFF, 0xFF)
    main.li(_R_SLOTMASK, _DISPATCH_SLOTS - 1)
    main.li(_R_ACC, 0)

    main.block("head")
    main.load(_R_VAL, _R_IDX)
    main.shr(_R_SEL, _R_VAL, 8)
    main.and_(_R_SEL, _R_SEL, _R_SLOTMASK)
    main.icall(_R_SEL, structure.dispatch_table)

    main.block("latch")
    main.addi(_R_IDX, _R_IDX, 1)
    main.subi(_R_N, _R_N, 1)
    main.bnei(_R_N, 0, "head")

    main.block("exit")
    main.halt()
    return main.function


def _link(structure: AppStructure, iterations: int,
          functions: list[Function]) -> Program:
    """``functions`` behind a dispatch loop of ``iterations`` outer
    iterations."""
    main = _emit_main(structure, iterations)
    return Program(structure.profile.name, functions=[main, *functions],
                   entry="main", data=structure.data).finalize()


def emit_program(
    structure: AppStructure, iterations: int
) -> Program:
    """Lower a structure to a runnable program with ``iterations`` outer
    loop iterations."""
    return _link(structure, iterations, _emit_functions(structure))


def build_app(
    profile: AppProfile, scale: float = 1.0, seed: int = 0
) -> Program:
    """Generate, calibrate, and emit an application proxy.

    A pilot run measures instructions per outer iteration so the final
    program hits ``profile.target_instructions * scale`` regardless of the
    drawn structure.
    """
    structure = generate_structure(profile, seed)
    functions = _emit_functions(structure)
    pilot = _link(structure, _PILOT_ITERATIONS, functions)
    pilot_instr = int(
        pilot.tables.block_sizes[run_program(pilot).block_seq].sum()
    )
    per_iteration = max(1.0, pilot_instr / _PILOT_ITERATIONS)
    target = profile.target_instructions * scale
    iterations = max(1, int(round(target / per_iteration)))
    program = pilot.derive(_emit_main(structure, iterations))
    share_steps(pilot, program)
    return program
