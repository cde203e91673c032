"""Differential fuzz suite: the fast engine must be bit-identical to the
reference engine.

The fast engine (:mod:`repro.cpu.fastengine`, :mod:`repro.pmu.fastpath`)
is pure optimization — vectorized trace expansion and event-driven
overflow delivery.  Its contract is *bit-identity*: for any program and
any sampling configuration, block sequences, final architectural state,
and every field of every :class:`~repro.pmu.sampler.SampleBatch` must
equal the reference engine's, including randomized periods, random phase,
jittered skid, and LBR ranges (the RNG consumption order is part of the
contract).  These tests enforce that over randomized programs and the
paper's method ladder, at four levels: interpreter, sampler, harness cell
and consumer fidelity.  The fast engine is the one every harness runs;
the reference engine exists to be compared against here.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from repro import IVY_BRIDGE, MAGNY_COURS, WESTMERE, Machine, ProgramBuilder
from repro.core.experiment import CellSpec, ExperimentConfig, Harness
from repro.cpu import fastengine, interpreter, lanes
from repro.cpu.engine import ReferenceEngine
from repro.cpu.fastengine import FastEngine, fast_run_program
from repro.cpu.interpreter import run_program
from repro.cpu.trace import Trace
from repro.errors import PMUConfigError
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
        ref = run_program(program)
        fast = fast_run_program(program)
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
        t_ref = Trace(program, run_program(program).block_seq)
        t_fast = Trace(program, fast_run_program(program).block_seq)
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
    ref = run_program(program)
    fast = fast_run_program(program)
    assert np.array_equal(ref.block_seq, fast.block_seq)
    assert list(fast.registers) == list(ref.registers)
    assert np.array_equal(ref.data, fast.data) and fast.data.dtype == np.int64
    assert ref.registers[4] == 3000          # only the last pass did work
    assert {int(copy[5]) for _, copy in seen} == {3, 2, 1}
    assert all(data.dtype == np.int64 for data, _ in seen)

    # Without a store the lanes read the program's own segment.
    seen.clear()
    plain = build_counted_loop(iterations=3000)
    fast_run_program(plain)
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
    for run in (run_program, fast_run_program):
        with pytest.raises(OverflowError):
            run(program)


# -- compilation state ------------------------------------------------------


def test_blocks_compile_on_first_run_only():
    """After a fast run of an app, every block that never ran is still the
    stub that would compile it."""
    from repro.workloads.registry import get_workload

    program = get_workload("omnetpp").build(scale=0.01)
    ran = set(fast_run_program(program).block_seq.tolist())
    steps = fastengine._ARTIFACTS[program].steps
    never = [b for b in range(program.num_blocks) if b not in ran]
    assert never and ran
    assert all(steps[b].__name__ == "compile_on_first_run" for b in never)
    assert any(steps[b].__name__ == "_step" for b in ran)


@pytest.mark.parametrize("name", ["latency_biased", "omnetpp"])
def test_artifacts_release_a_collected_program(name):
    """Compiled steps, stubs and cached loop analyses hold no reference to
    their program: once it is dropped, the weak artifact cache lets go."""
    from repro.workloads.registry import get_workload

    program = get_workload(name).build(scale=0.01)
    fast_run_program(program)
    assert program in fastengine._ARTIFACTS
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
        trace = Trace(program, fast_run_program(program).block_seq)
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
    """The three new families run bit-identically on both engines, over
    many seeds of the sampling RNG (>= 30 comparisons per family)."""
    for name, (program, _) in family_traces.items():
        ref = run_program(program)
        fast = fast_run_program(program)
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
