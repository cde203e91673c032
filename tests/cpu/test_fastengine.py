"""Differential suite: the product must be bit-identical to the oracle.

The product runs every program through one driver
(:func:`repro.cpu.interpreter.run_program`, with the lane accelerator of
:mod:`repro.cpu.lanes`) and samples with the O(samples) collector of
:mod:`repro.pmu.fastpath`, behind :class:`~repro.cpu.fastengine.FastEngine`.
The oracle, :class:`~repro.cpu.engine.ReferenceEngine`, shares no code with
the driver: :func:`repro.cpu.engine.interpret` steps one instruction at a
time, and the per-instruction :class:`~repro.pmu.sampler.Sampler` collects.
The contract is *bit-identity*: for any program and any sampling
configuration, block sequences, final architectural state, exceptions, and
every field of every :class:`~repro.pmu.sampler.SampleBatch` must equal the
oracle's, including randomized periods, random phase, jittered skid, and
LBR ranges (the RNG consumption order is part of the contract).  These
tests enforce that over fixed and generated programs, generated machines
and the paper's method ladder, at four levels: interpreter, sampler,
harness cell and consumer fidelity.
"""

from __future__ import annotations

import dataclasses
import gc
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import IVY_BRIDGE, MAGNY_COURS, WESTMERE, Machine, ProgramBuilder
from repro.core.experiment import CellSpec, ExperimentConfig, Harness
from repro.cpu import interpreter, lanes
from repro.cpu.engine import ReferenceEngine, interpret
from repro.cpu.fastengine import FastEngine
from repro.cpu.interpreter import LazyRegisters, run_program
from repro.cpu.trace import Trace
from repro.errors import PMUConfigError
from repro.isa.builder import NUM_REGISTERS
from repro.isa.opcodes import LatencyClass
from repro.core.methods import METHOD_KEYS, method_available, resolve_method
from repro.pmu.events import (
    Precision,
    instructions_event,
    taken_branches_event,
)
from repro.pmu.overflow import overflow_thresholds
from repro.pmu.periods import PeriodPolicy, Randomization
from repro.pmu.sampler import Sampler, SamplingConfig

from tests.conftest import build_counted_loop
from tests.integration.test_pipeline_properties import programs_with_calls

FUZZ_SEEDS = range(30)          # >= 25 randomized programs
ALL_UARCHES = (WESTMERE, IVY_BRIDGE, MAGNY_COURS)


# -- randomized program generator ------------------------------------------


def build_random_program(seed: int):
    """A deterministic random program: counted outer loop around a random
    mix of branch diamonds, an optional inner loop, calls (direct and
    indirect), loads/stores, and ALU/FP bursts.  Always terminates.

    Register map: r0 outer counter, r1 data index, r2 inner counter,
    r3-r9 scratch/data, r10 call selector.
    """
    rng = np.random.default_rng(1000 + seed)
    data = rng.integers(0, 64, size=128, dtype=np.int64)
    b = ProgramBuilder(f"fuzz_{seed}", data=data)

    helpers = []
    for h in range(int(rng.integers(0, 3))):
        name = f"helper{h}"
        f = b.function(name)
        f.block("body")
        f.alu_burst(int(rng.integers(1, 5)))
        if rng.random() < 0.5:
            f.load(9, 1, int(rng.integers(0, 8)))
            f.add(8, 8, 9)
        f.ret()
        helpers.append(name)

    f = b.function("main", entry=True)
    f.block("entry")
    f.li(0, int(rng.integers(40, 200)))     # outer iterations
    f.li(1, 0)
    f.li(8, 0)
    f.block("head")
    f.load(3, 1)                            # data-driven control

    use_diamond = rng.random() < 0.8
    use_inner = rng.random() < 0.5
    use_call = bool(helpers) and rng.random() < 0.7
    use_icall = len(helpers) >= 2 and rng.random() < 0.4

    if use_diamond:
        f.modi(4, 3, int(rng.integers(2, 5)))
        f.bnei(4, 0, "odd")
        f.block("even")
        f.alu_burst(int(rng.integers(1, 6)))
        f.store(1, 3, int(rng.integers(0, 4)))
        f.jmp("join")
        f.block("odd")
        f.fp_burst(int(rng.integers(1, 4)))
        f.block("join")
        f.add(8, 8, 4)

    if use_inner:
        f.li(2, int(rng.integers(2, 9)))    # inner iterations
        f.block("inner")
        f.alu_burst(int(rng.integers(1, 4)))
        f.subi(2, 2, 1)
        f.bnei(2, 0, "inner")
        f.block("post_inner")
        f.nop()

    if use_call:
        f.call(helpers[int(rng.integers(0, len(helpers)))])
        f.block("post_call")            # calls terminate their block
        f.nop()
    if use_icall:
        f.modi(10, 3, 2)
        f.icall(10, helpers[:2])
        f.block("post_icall")
        f.nop()

    f.block("latch")
    f.addi(1, 1, 1)
    f.modi(1, 1, 64)
    f.subi(0, 0, 1)
    f.bnei(0, 0, "head")
    f.block("exit")
    f.halt()
    return b.build()


@pytest.fixture(scope="module")
def fuzz_programs():
    return {seed: build_random_program(seed) for seed in FUZZ_SEEDS}


# -- the harness's engine ---------------------------------------------------

SMALL = ExperimentConfig(scale=0.02, repeats=2)


def test_harness_defaults_to_fast_engine():
    harness = Harness(SMALL)
    assert isinstance(harness.engine, FastEngine)
    # The fast engine shares one Execution per (machine, trace).
    assert harness.execution("ivybridge", "latency_biased") \
        is harness.execution("ivybridge", "latency_biased")


def test_harness_uses_the_engine_it_is_given():
    oracle = ReferenceEngine()
    harness = Harness(SMALL, engine=oracle)
    assert harness.engine is oracle
    # The reference engine observes the trace afresh on every call.
    first = harness.execution("ivybridge", "latency_biased")
    second = harness.execution("ivybridge", "latency_biased")
    assert first is not second and first.trace is second.trace


def test_engines_are_fresh_instances():
    """Executions shared inside an engine never leak across harnesses."""
    harness = Harness(SMALL)
    assert harness.engine is harness.engine
    assert Harness(SMALL).engine is not harness.engine


# -- interpreter equivalence ------------------------------------------------


def test_fuzz_interpreter_bit_identical(fuzz_programs):
    for seed, program in fuzz_programs.items():
        ref = interpret(program)
        fast = run_program(program)
        assert np.array_equal(ref.block_seq, fast.block_seq), \
            f"fuzz seed {seed}: block sequences diverge"
        assert list(fast.registers) == list(ref.registers), \
            f"fuzz seed {seed}: final registers diverge"
        assert np.array_equal(ref.data, fast.data), \
            f"fuzz seed {seed}: data memory diverges"


def test_fuzz_trace_statistics_identical(fuzz_programs):
    """Trace-level derived arrays (what the PMU samples against) match."""
    for seed in list(FUZZ_SEEDS)[:8]:
        program = fuzz_programs[seed]
        t_ref = Trace(program, interpret(program).block_seq)
        t_fast = Trace(program, run_program(program).block_seq)
        assert t_ref.num_instructions == t_fast.num_instructions
        assert np.array_equal(t_ref.taken_positions, t_fast.taken_positions)
        assert np.array_equal(t_ref.cumulative_uops, t_fast.cumulative_uops)


def _store_then_laned_loop():
    """Three outer passes each store their count (3, 2, 1) into cell 5,
    then run a 3000-trip inner loop whose branch reads that cell: passes
    storing >= 2 skip the work block.  The inner loop has no store, so the
    lanes take it."""
    b = ProgramBuilder("store_then_loop", data=np.zeros(64, dtype=np.int64))
    f = b.function("main")
    f.block("entry")
    f.li(0, 3)
    f.li(1, 0)
    f.block("outer")
    f.store(1, 0, 5)
    f.li(2, 3000)
    f.block("inner")
    f.load(3, 1, 5)
    f.bgei(3, 2, "skip")
    f.block("work")
    f.addi(4, 4, 1)
    f.block("skip")
    f.subi(2, 2, 1)
    f.bnei(2, 0, "inner")
    f.block("latch")
    f.subi(0, 0, 1)
    f.bnei(0, 0, "outer")
    f.block("exit")
    f.halt()
    return b.build()


def test_lanes_read_what_the_steps_stored(monkeypatch):
    """Steps write a list; the lanes read an int64 array made from it before
    each batch, so a loop after a store sees the stored value."""
    seen: list = []
    run_batch = lanes._LoopAnalysis.run_batch

    def spy(self, regs, data, max_lanes):
        seen.append((data, data.copy()))
        return run_batch(self, regs, data, max_lanes)

    monkeypatch.setattr(lanes._LoopAnalysis, "run_batch", spy)
    program = _store_then_laned_loop()
    ref = interpret(program)
    fast = run_program(program)
    assert np.array_equal(ref.block_seq, fast.block_seq)
    assert list(fast.registers) == list(ref.registers)
    assert np.array_equal(ref.data, fast.data) and fast.data.dtype == np.int64
    assert ref.registers[4] == 3000          # only the last pass did work
    assert {int(copy[5]) for _, copy in seen} == {3, 2, 1}
    assert all(data.dtype == np.int64 for data, _ in seen)

    # Without a store the lanes read the program's own segment.
    seen.clear()
    plain = build_counted_loop(iterations=3000)
    run_program(plain)
    assert seen and all(data is plain.data for data, _ in seen)


@pytest.mark.parametrize("value", [1 << 63, -(1 << 63) - 1])
def test_store_outside_int64_raises_on_both_engines(value):
    """The data segment is int64: a store it cannot hold fails at the store,
    not at the end of the run, so a later overwrite cannot hide it."""
    b = ProgramBuilder("wide_store", data=np.zeros(4, dtype=np.int64))
    f = b.function("main")
    f.block("entry")
    f.li(1, value)
    f.store(0, 1)
    f.li(1, 0)
    f.store(0, 1)                   # overwriting cannot hide the first
    f.halt()
    program = b.build()
    for run in (interpret, run_program):
        with pytest.raises(OverflowError):
            run(program)


# -- lane faults the oracle found ---------------------------------------------

I64_MIN = -(1 << 63)


def _laned_loop(body, registers: dict[int, int] | None = None):
    """A 3000-trip counted loop (r0 counts down) around ``body(f)``, which
    may branch to ``latch``; the lanes take it. Returns the program and an
    initial register file with ``registers`` set."""
    b = ProgramBuilder("laned", data=np.arange(8, dtype=np.int64))
    f = b.function("main")
    f.block("entry")
    f.li(0, 3000)
    f.block("head")
    body(f)
    f.block("latch")
    f.subi(0, 0, 1)
    f.bnei(0, 0, "head")
    f.block("exit")
    f.halt()
    regs = [0] * NUM_REGISTERS
    for reg, value in (registers or {}).items():
        regs[reg] = value
    return b.build(), regs


def _outcome(run, program, registers=None, fuel=interpreter.DEFAULT_FUEL):
    """What ``run`` makes of ``program``: its exception type, or its block
    sequence, registers and data."""
    try:
        result = run(program, fuel=fuel, registers=registers)
    except Exception as exc:  # noqa: BLE001 - compared, not hidden
        return type(exc)
    return (result.block_seq.tolist(), list(result.registers),
            result.data.tolist())


def _modi_by_wide_immediate(f):
    f.modi(5, 0, 1 << 63)


def _div_by_wide_register(f):
    f.div(5, 0, 6)


def _load_with_wide_immediate(f):
    f.load(5, 0, I64_MIN - 1)


def _modi_by_negative_immediate(f):
    f.modi(5, 0, -5)
    f.add(6, 5, 7)
    f.blti(6, 0, "latch")
    f.block("work")
    f.nop()


def _div_of_int64_min_by_minus_one(f):
    f.div(5, 2, 6)
    f.addi(2, 2, 1)
    f.blti(5, 0, "latch")
    f.block("work")
    f.nop()


@pytest.mark.parametrize("body, registers", [
    # The lanes handed NumPy a divisor or offset it cannot hold as int64
    # and raised OverflowError.
    (_modi_by_wide_immediate, {}),
    (_div_by_wide_register, {6: 1 << 63}),
    (_load_with_wide_immediate, {}),
    # A negative modulus got the bounds (0, k - 1), so the int64 check let
    # r5 + r7 wrap: 7,201 blocks instead of 6,002, with no error.
    (_modi_by_negative_immediate, {7: I64_MIN + 2}),
    # I64_MIN // -1 does not fit int64 and wrapped: one block short.
    (_div_of_int64_min_by_minus_one, {2: I64_MIN, 6: -1}),
], ids=["modi-wide", "div-wide", "load-wide", "modi-negative",
        "div-int64-min"])
def test_lanes_refuse_what_int64_cannot_hold(body, registers):
    program, regs = _laned_loop(body, registers)
    expected = _outcome(interpret, program, regs)
    assert not isinstance(expected, type)
    assert _outcome(run_program, program, regs) == expected


# -- deferred registers ------------------------------------------------------


def _opaque_loop(read_after: bool):
    """A 3000-trip loop that sums quotients of loaded values into r5 (a
    carried value the lanes cannot reconstruct); ``read_after`` branches on
    it after the loop."""
    b = ProgramBuilder("opaque", data=np.arange(1, 65, dtype=np.int64))
    f = b.function("main")
    f.block("entry")
    f.li(0, 3000)
    f.block("head")
    f.load(3, 0)
    f.load(4, 0, 7)
    f.div(6, 3, 4)
    f.add(5, 5, 6)
    f.subi(0, 0, 1)
    f.bnei(0, 0, "head")
    if read_after:
        f.block("after")
        f.bgei(5, 1, "exit")
        f.block("zero")
        f.addi(6, 6, 1)
    f.block("exit")
    f.halt()
    return b.build()


def test_opaque_read_replays_the_run_with_lanes_off(monkeypatch):
    calls: list[bool] = []
    run = interpreter._run

    def spy(program, fuel, registers, laned):
        calls.append(laned)
        return run(program, fuel, registers, laned)

    monkeypatch.setattr(interpreter, "_run", spy)
    program = _opaque_loop(read_after=True)
    assert _outcome(run_program, program) == _outcome(interpret, program)
    assert calls == [True, False]


def test_deferred_registers_materialize_on_first_read():
    program = _opaque_loop(read_after=False)
    result = run_program(program)
    assert isinstance(result.registers, LazyRegisters)
    assert not result.registers._forced
    expected = interpret(program)
    assert np.array_equal(result.block_seq, expected.block_seq)
    assert result.registers == expected.registers
    assert result.registers[5] == expected.registers[5]


# -- generated programs --------------------------------------------------------

#: Values at and past the int64 and uint64 edges.
_EDGES = (0, 1, -1, 2, -2, 5, -5, 63, 64, 65, (1 << 63) - 1, 1 << 63,
          I64_MIN, I64_MIN - 1, I64_MIN + 2, (1 << 64) - 1, 1 << 64,
          -(1 << 64))
#: Mostly small, so that the lanes can prove most values fit int64.
_small = st.integers(-100, 100)
_wide = st.one_of(_small, _small, _small, st.sampled_from(_EDGES),
                  st.integers(-(1 << 65), 1 << 65))
#: r0 and r1 count the loops; generated instructions never write them, and
#: read them often. Few registers, so that instructions feed each other.
_free = st.integers(min_value=2, max_value=7)
_any = st.one_of(st.sampled_from((0, 1)), st.integers(min_value=0,
                                                     max_value=7))
_BINARY = ("add", "sub", "mul", "div", "and_", "or_", "xor")
_IMMEDIATE = ("addi", "subi", "shl", "shr", "modi")
_BRANCH_REG = ("beq", "bne", "blt", "bge")
_BRANCH_IMM = ("beqi", "bnei", "blti", "bgei")
_FUEL = 20_000


def _emit_ops(draw, f, count):
    """``count`` random semantic instructions over wide operands (stores
    are a segment of their own: the lanes stop at one)."""
    for _ in range(count):
        kind = draw(st.sampled_from(
            ("li", "mov", "load", "fp", *_BINARY, *_IMMEDIATE)))
        if kind == "li":
            f.li(draw(_free), draw(_wide))
        elif kind == "mov":
            f.mov(draw(_free), draw(_any))
        elif kind == "load":
            load = draw(st.sampled_from((f.load, f.loadl, f.loadm)))
            load(draw(_free), draw(_any), draw(_wide))
        elif kind == "fp":
            f.fp_burst(1)
        elif kind in _BINARY:
            getattr(f, kind)(draw(_free), draw(_any), draw(_any))
        else:
            getattr(f, kind)(draw(_free), draw(_any), draw(_wide))


@st.composite
def looped_programs(draw):
    """A counted outer loop (r0) around diamonds, counted inner loops (r1),
    CALL, ICALL, STORE and random semantic instructions, with immediates,
    initial registers and data that reach the int64 and uint64 edges.
    Returns the program and its initial register file."""
    data = draw(st.lists(st.one_of(
        st.integers(-100, 100), st.sampled_from((I64_MIN, (1 << 63) - 1)),
        st.integers(I64_MIN, (1 << 63) - 1)), min_size=1, max_size=12))
    b = ProgramBuilder("generated", data=np.asarray(data, dtype=np.int64))
    helpers = [f"helper{h}" for h in range(draw(st.integers(1, 3)))]
    f = b.function("main")
    f.block("entry")
    f.li(0, draw(st.integers(1, 400)))
    f.block("head")
    for i in range(draw(st.integers(1, 4))):
        shape = draw(st.sampled_from(
            ("ops", "diamond", "loop", "call", "icall", "store")))
        if shape == "ops":
            _emit_ops(draw, f, draw(st.integers(1, 5)))
        elif shape == "store":
            f.store(draw(_any), draw(_any), draw(_wide))
        elif shape == "diamond":
            _emit_ops(draw, f, draw(st.integers(0, 2)))
            if draw(st.booleans()):
                getattr(f, draw(st.sampled_from(_BRANCH_REG)))(
                    draw(_any), draw(_any), f"skip{i}")
            else:
                getattr(f, draw(st.sampled_from(_BRANCH_IMM)))(
                    draw(_any), draw(_wide), f"skip{i}")
            f.block(f"body{i}")
            _emit_ops(draw, f, draw(st.integers(1, 3)))
            f.block(f"skip{i}")
            f.nop()
        elif shape == "loop":
            f.li(1, draw(st.integers(1, 12)))
            f.block(f"inner{i}")
            _emit_ops(draw, f, draw(st.integers(1, 4)))
            f.subi(1, 1, 1)
            f.bnei(1, 0, f"inner{i}")
            f.block(f"after{i}")
            f.nop()
        elif shape == "call":
            f.call(draw(st.sampled_from(helpers)))
            f.block(f"cont{i}")
            f.nop()
        else:
            f.icall(draw(_any), draw(st.lists(st.sampled_from(helpers),
                                              min_size=1, max_size=4)))
            f.block(f"cont{i}")
            f.nop()
    f.block("latch")
    f.subi(0, 0, 1)
    f.bnei(0, 0, "head")
    f.block("exit")
    f.halt()
    for name in helpers:
        g = b.function(name)
        g.block("body")
        _emit_ops(draw, g, draw(st.integers(1, 4)))
        g.ret()
    registers = draw(st.lists(_wide, min_size=NUM_REGISTERS,
                              max_size=NUM_REGISTERS))
    return b.build(), registers


@settings(max_examples=300, deadline=None)
@given(case=looped_programs())
def test_generated_programs_match_the_oracle(case):
    """Block sequence, registers, data and exception type of the driver
    (lanes on) equal the oracle's on generated programs."""
    program, registers = case
    assert _outcome(run_program, program, registers, _FUEL) \
        == _outcome(interpret, program, registers, _FUEL)


# -- compilation state ------------------------------------------------------


def test_blocks_compile_on_first_run_only(monkeypatch):
    """No block compiles before it first runs in some program. An app is
    derived from its calibration pilot and starts from the pilot's
    compiled steps, so after a run of the app exactly the blocks that ran
    in it, or in the pilot outside the replaced ``main``, are compiled;
    every other block is still the stub that would compile it."""
    from repro.workloads.apps import generator
    from repro.workloads.apps.profiles import APP_PROFILES

    pilot_runs = []

    def recording(program):
        result = run_program(program)
        pilot_runs.append(set(result.block_seq.tolist()))
        return result

    monkeypatch.setattr(generator, "run_program", recording)
    program = generator.build_app(APP_PROFILES["omnetpp"], scale=0.01)
    (in_pilot,) = pilot_runs
    assert program not in interpreter._ARTIFACTS    # not compiled yet
    ran = set(run_program(program).block_seq.tolist())
    steps = interpreter._ARTIFACTS[program].steps
    main = {block.index for block in program.function("main").blocks}
    compiled = {b for b, step in enumerate(steps)
                if step.__name__ == "_step"}
    stubs = {b for b, step in enumerate(steps)
             if step.__name__ == "compile_on_first_run"}
    assert compiled == ran | (in_pilot - main)
    assert stubs == set(range(program.num_blocks)) - compiled
    # Each kind of block is there: shared from the pilot only, never run.
    assert (in_pilot - main) - ran and stubs


@pytest.mark.parametrize("name", ["latency_biased", "omnetpp"])
def test_artifacts_release_a_collected_program(name):
    """Compiled steps, stubs and cached loop analyses hold no reference to
    their program: once it is dropped, the weak artifact cache lets go."""
    from repro.workloads.registry import get_workload

    program = get_workload(name).build(scale=0.01)
    run_program(program)
    assert program in interpreter._ARTIFACTS
    alive = weakref.ref(program)
    del program
    gc.collect()
    assert alive() is None


# -- sampler equivalence ----------------------------------------------------


def _assert_batches_equal(ref, fast, context: str) -> None:
    assert np.array_equal(ref.trigger_idx, fast.trigger_idx), \
        f"{context}: trigger_idx"
    assert np.array_equal(ref.reported_idx, fast.reported_idx), \
        f"{context}: reported_idx"
    assert np.array_equal(ref.period_weights, fast.period_weights), \
        f"{context}: period_weights"
    assert ref.dropped == fast.dropped, f"{context}: dropped"
    if ref.lbr_ranges is None:
        assert fast.lbr_ranges is None, f"{context}: lbr presence"
    else:
        assert fast.lbr_ranges is not None, f"{context}: lbr presence"
        assert np.array_equal(ref.lbr_ranges[0], fast.lbr_ranges[0]), \
            f"{context}: lbr starts"
        assert np.array_equal(ref.lbr_ranges[1], fast.lbr_ranges[1]), \
            f"{context}: lbr ends"


def _collect_both(execution, config, seed: int):
    ref = Sampler(execution).collect(config, np.random.default_rng(seed))
    fast_sampler = FastEngine().sampler(execution)
    fast = fast_sampler.collect(config, np.random.default_rng(seed))
    return ref, fast


def _precision_configs(uarch):
    """Every precision the machine supports, fixed and randomized+phase."""
    configs = []
    for precision in (Precision.IMPRECISE, Precision.PEBS, Precision.PDIR,
                      Precision.IBS):
        try:
            event = instructions_event(uarch, precision)
        except PMUConfigError:
            continue
        configs.append((f"{precision.value}/fixed", SamplingConfig(
            event=event, period=PeriodPolicy(base=47))))
        configs.append((f"{precision.value}/rand+phase", SamplingConfig(
            event=event,
            period=PeriodPolicy(base=64,
                                randomization=Randomization.SOFTWARE),
            random_phase=True)))
    if uarch.has_lbr:
        configs.append(("taken/lbr", SamplingConfig(
            event=taken_branches_event(uarch),
            period=PeriodPolicy(base=13),
            collect_lbr=True,
            random_phase=True)))
    return configs


def test_fuzz_sampler_bit_identical(fuzz_programs):
    """Every precision class, every machine, >= 25 fuzz programs."""
    for seed, program in fuzz_programs.items():
        trace = Trace(program, run_program(program).block_seq)
        uarch = ALL_UARCHES[seed % len(ALL_UARCHES)]
        execution = Machine(uarch).attach(trace)
        for label, config in _precision_configs(uarch):
            ref, fast = _collect_both(execution, config, seed=seed)
            _assert_batches_equal(
                ref, fast, f"fuzz seed {seed} on {uarch.name} ({label})"
            )


def test_method_ladder_bit_identical(fuzz_programs):
    """The paper's Table 3 methods end-to-end on every machine."""
    program = fuzz_programs[0]
    trace = Trace(program, run_program(program).block_seq)
    compared = 0
    for uarch in ALL_UARCHES:
        execution = Machine(uarch).attach(trace)
        for key in METHOD_KEYS:
            if not method_available(key, uarch):
                continue
            resolved = resolve_method(key, uarch, 101)
            for seed in (1, 7):
                ref, fast = _collect_both(execution, resolved.config, seed)
                _assert_batches_equal(
                    ref, fast, f"{key} on {uarch.name} seed {seed}"
                )
                compared += 1
    assert compared >= 20


@st.composite
def machines(draw):
    """One of the paper's machines with its timing, skid, PEBS, LBR and
    IBS parameters redrawn (its event catalog and feature flags kept)."""
    base = draw(st.sampled_from(ALL_UARCHES))
    cycles = st.integers(min_value=1, max_value=60)
    return dataclasses.replace(
        base,
        retire_width=draw(st.integers(1, 7)),
        latency_cycles={lc: draw(cycles) for lc in LatencyClass},
        ooo_hide_cycles=draw(st.integers(0, 30)),
        pmi_skid_cycles=draw(st.integers(0, 60)),
        pmi_jitter_cycles=draw(st.integers(0, 20)),
        pebs_arming_cycles=draw(st.integers(0, 30)),
        lbr_depth=draw(st.one_of(st.just(0), st.integers(2, 32))),
        ibs_dispatch_group=draw(st.integers(1, 8)),
        ibs_arming_cycles=draw(st.integers(0, 10)),
        ibs_flush_window=draw(st.integers(0, 40)),
        mispredict_penalty_cycles=draw(st.integers(0, 30)),
    )


@settings(max_examples=600, deadline=None)
@given(program=programs_with_calls(), uarch=machines(),
       seed=st.integers(0, 2**16))
def test_generated_machines_sample_like_the_oracle(program, uarch, seed):
    """Every precision the machine offers, on generated programs and
    machines: the fast sampler's batches equal the per-instruction
    Sampler's, and every imprecise sample reports an instruction after
    its trigger, whatever the skid."""
    execution = Machine(uarch).attach(
        Trace(program, run_program(program).block_seq))
    for label, config in _precision_configs(uarch):
        ref, fast = _collect_both(execution, config, seed)
        _assert_batches_equal(ref, fast, f"{uarch} ({label})")
        if config.event.precision is Precision.IMPRECISE:
            assert (ref.reported_idx > ref.trigger_idx).all(), \
                f"{uarch} ({label}): a PMI reported at or before its trigger"


# -- overflow edge cases ----------------------------------------------------


def test_overflow_phase_at_or_past_total():
    """A phase >= total events schedules zero overflows (and both engines
    deliver identical empty batches)."""
    policy = PeriodPolicy(base=50)
    rng = np.random.default_rng(0)
    thresholds, periods = overflow_thresholds(policy, total=40, rng=rng,
                                              phase=40)
    assert thresholds.size == 0 and periods.size == 0
    thresholds, _ = overflow_thresholds(policy, total=40, rng=rng, phase=400)
    assert thresholds.size == 0


def test_sampler_identical_when_phase_exceeds_total(fuzz_programs):
    """random_phase can push the first overflow past the trace end; both
    engines must agree on the (possibly empty) result for every phase the
    RNG can draw."""
    program = fuzz_programs[1]
    trace = Trace(program, run_program(program).block_seq)
    execution = Machine(IVY_BRIDGE).attach(trace)
    n = trace.num_instructions
    config = SamplingConfig(
        event=instructions_event(IVY_BRIDGE, Precision.PEBS),
        period=PeriodPolicy(base=max(2, n - 1)),
        random_phase=True,
    )
    for seed in range(10):
        ref, fast = _collect_both(execution, config, seed)
        _assert_batches_equal(ref, fast, f"phase-edge seed {seed}")
    oversized = SamplingConfig(
        event=instructions_event(IVY_BRIDGE, Precision.PEBS),
        period=PeriodPolicy(base=n + 1000),
    )
    ref, fast = _collect_both(execution, oversized, 0)
    assert ref.num_samples == 0
    _assert_batches_equal(ref, fast, "oversized period")


def test_sampler_identical_at_min_period_boundary(fuzz_programs):
    """The smallest legal periods (base=2 fixed; software randomization
    clamping at min_period) stress per-event delivery."""
    program = fuzz_programs[2]
    trace = Trace(program, run_program(program).block_seq)
    execution = Machine(IVY_BRIDGE).attach(trace)
    for policy in (
        PeriodPolicy(base=2),
        PeriodPolicy(base=3, randomization=Randomization.SOFTWARE,
                     spread_shift=1),
    ):
        config = SamplingConfig(
            event=instructions_event(IVY_BRIDGE, Precision.PEBS),
            period=policy,
            random_phase=True,
        )
        for seed in (0, 3):
            ref, fast = _collect_both(execution, config, seed)
            _assert_batches_equal(
                ref, fast, f"min-period {policy.base} seed {seed}"
            )


# -- harness-level equivalence ---------------------------------------------


def test_kernel_workload_cells_identical():
    """Full cell evaluations (trace -> sampling -> attribution -> scoring)
    agree between engines on a real kernel workload."""
    oracle = Harness(SMALL, engine=ReferenceEngine())
    default = Harness(SMALL)
    assert isinstance(default.engine, FastEngine)
    for method in ("classic", "precise_prime_rand", "lbr"):
        spec = CellSpec("ivybridge", "latency_biased", method)
        ref = oracle.evaluate_cell(spec).stats
        fast = default.evaluate_cell(spec).stats
        assert ref.errors == fast.errors, method


def test_threads_sharing_fast_engine_caches_match_serial():
    """Serve worker threads each build their own Harness, but all of them
    share the fast engine's module-level program and loop-analysis caches.
    Four threads evaluating one workload at once, from a cold start, must
    each get exactly the oracle's serial answer."""
    bases = (100, 211, 322, 433)
    methods = ("classic", "precise_prime_rand", "lbr")

    def config(seed_base: int) -> ExperimentConfig:
        # A scale no other test uses, so the threads race to fill the caches
        # (for mcf: the pilot build and the compile-on-first-run stubs).
        return ExperimentConfig(scale=0.017, repeats=2, seed_base=seed_base)

    def cells(harness: Harness) -> list:
        return [harness.evaluate_cell(CellSpec("ivybridge", workload, m))
                for workload in ("memaccess", "mcf") for m in methods]

    serial = {base: cells(Harness(config(base), engine=ReferenceEngine()))
              for base in bases}
    interpreter._STEPS.clear()          # the threads race the step memo
    interpreter._SHAPES.clear()         # and the shape memo too
    start = threading.Barrier(len(bases))
    threaded: dict[int, list] = {}
    failures: list[Exception] = []

    def worker(base: int) -> None:
        try:
            start.wait()
            threaded[base] = cells(Harness(config(base)))
        except Exception as exc:  # noqa: BLE001 - reported below
            failures.append(exc)

    threads = [threading.Thread(target=worker, args=(base,))
               for base in bases]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)         # interleave the threads finely
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures
    assert threaded == serial


# -- workload-family equivalence --------------------------------------------

FAMILY_NAMES = ("phased", "interleaved", "memaccess")


@pytest.fixture(scope="module")
def family_traces():
    from repro.workloads.registry import get_workload

    traces = {}
    for name in FAMILY_NAMES:
        program = get_workload(name).build(scale=0.02)
        traces[name] = (program, Trace(program,
                                       run_program(program).block_seq))
    return traces


def test_family_interpreters_bit_identical(family_traces):
    """The three families run bit-identically on the driver and the
    oracle."""
    for name, (program, _) in family_traces.items():
        ref = interpret(program)
        fast = run_program(program)
        assert np.array_equal(ref.block_seq, fast.block_seq), name
        assert list(ref.registers) == list(fast.registers), name
        assert np.array_equal(ref.data, fast.data), name


def test_family_sampler_bit_identical_30_seeds(family_traces):
    for name, (_, trace) in family_traces.items():
        uarch = ALL_UARCHES[FAMILY_NAMES.index(name) % len(ALL_UARCHES)]
        execution = Machine(uarch).attach(trace)
        config = SamplingConfig(
            event=instructions_event(uarch, Precision.IMPRECISE),
            period=PeriodPolicy(base=997,
                                randomization=Randomization.SOFTWARE),
            random_phase=True,
        )
        for seed in FUZZ_SEEDS:
            ref, fast = _collect_both(execution, config, seed=seed)
            _assert_batches_equal(ref, fast, f"{name} seed {seed}")


def test_family_fidelity_identical_across_engines(family_traces):
    """Consumer fidelity (the new scoring path) is a pure function of the
    batches, so fast-engine stats must equal the reference's exactly."""
    from repro.fidelity import evaluate_fidelity
    from repro.instrumentation.reference import collect_reference

    for name, (_, trace) in family_traces.items():
        execution = Machine(WESTMERE).attach(trace)
        reference = collect_reference(trace)
        for method in ("classic", "lbr"):
            ref = evaluate_fidelity(execution, method, 1000,
                                    seeds=range(2), reference=reference,
                                    engine=ReferenceEngine())
            fast = evaluate_fidelity(execution, method, 1000,
                                     seeds=range(2), reference=reference,
                                     engine=FastEngine())
            assert ref == fast, f"{name}/{method}"
