"""Unit tests for the synthetic application generator and profiles."""

import dataclasses

import numpy as np
import pytest

import repro.cpu.engine as engine
import repro.cpu.interpreter as interpreter
import repro.workloads.apps.generator as generator
from repro.errors import WorkloadError
from repro.cpu.interpreter import run_program
from repro.cpu.trace import Trace
from repro.isa.opcodes import Opcode
from repro.isa.program import Program, StaticTables
from repro.workloads.apps.generator import (
    AppProfile,
    build_app,
    emit_program,
    generate_structure,
)
from repro.workloads.apps.profiles import APP_PROFILES, get_profile

_TINY = AppProfile(
    name="tiny",
    description="test profile",
    n_functions=10,
    levels=2,
    zipf_exponent=1.2,
    block_size=(3, 6),
    tests_per_function=(1, 3),
    taken_bias=(64, 192),
    p_loop=0.5,
    loop_trips=(2, 5),
    p_call=0.7,
    mix={"alu": 3.0, "load_l1": 1.0, "fp_add": 0.5},
    target_instructions=30_000,
)


def test_structure_deterministic_in_seed():
    a = generate_structure(_TINY, seed=3)
    b = generate_structure(_TINY, seed=3)
    assert [f.name for f in a.functions] == [f.name for f in b.functions]
    assert a.dispatch_table == b.dispatch_table
    assert (a.data == b.data).all()


def test_structure_varies_with_seed():
    a = generate_structure(_TINY, seed=1)
    b = generate_structure(_TINY, seed=2)
    assert not (a.data == b.data).all()


def test_emitted_program_is_valid_and_runs():
    structure = generate_structure(_TINY, seed=5)
    program = emit_program(structure, iterations=100)
    result = run_program(program)
    assert result.blocks_executed > 100


def test_emit_rejects_bad_iterations():
    structure = generate_structure(_TINY, seed=5)
    with pytest.raises(WorkloadError, match="iterations"):
        emit_program(structure, iterations=0)


def test_calibration_hits_target():
    program = build_app(_TINY, scale=1.0, seed=7)
    trace = Trace(program, run_program(program).block_seq)
    target = _TINY.target_instructions
    assert 0.5 * target < trace.num_instructions < 2.0 * target


@pytest.mark.parametrize("name", sorted(APP_PROFILES))
def test_build_app_emits_once_and_never_runs_the_oracle(name, monkeypatch):
    """The pilot runs on the product's driver over the final program's own
    work functions; the built program equals a fresh emission at its outer
    count."""
    def refuse(*_args, **_kwargs):
        raise AssertionError("build_app ran the oracle interpreter")

    monkeypatch.setattr(engine, "interpret", refuse)
    assert generator.run_program is interpreter.run_program
    profile = APP_PROFILES[name]
    structure = generate_structure(profile, seed=1234)
    for scale in (0.05, 1.0):
        program = build_app(profile, scale=scale, seed=1234)
        outer = program.function("main").entry.instructions[0]
        assert outer.opcode is Opcode.LI and outer.dst == 0
        expected = emit_program(structure, outer.imm)
        for field in dataclasses.fields(StaticTables):
            assert np.array_equal(getattr(program.tables, field.name),
                                  getattr(expected.tables, field.name)), \
                (scale, field.name)
        assert [b.label for b in program.blocks] \
            == [b.label for b in expected.blocks]
        assert [i for b in program.blocks for i in b.instructions] \
            == [i for b in expected.blocks for i in b.instructions]
        assert np.array_equal(program.data, expected.data)


@pytest.mark.parametrize("name", sorted(APP_PROFILES))
def test_build_app_lays_out_once(name, monkeypatch):
    """The final program is derived from the pilot: one layout per app."""
    layouts = []
    layout = Program._layout

    def counting(program):
        layouts.append(program.name)
        layout(program)

    monkeypatch.setattr(Program, "_layout", counting)
    build_app(APP_PROFILES[name], scale=0.05, seed=3)
    assert layouts == [name]


def _old_draw_work(profile, rng):
    """Work-block draws as they were made by name, per call."""
    lo, hi = profile.block_size
    size = int(rng.integers(lo, hi + 1))
    names = list(profile.mix)
    weights = np.asarray([profile.mix[k] for k in names], dtype=np.float64)
    weights /= weights.sum()
    kinds = [str(k) for k in rng.choice(names, size=size, p=weights)]
    return generator.WorkPlan(kinds=kinds)


@pytest.mark.parametrize("name", sorted(APP_PROFILES))
def test_work_draws_by_index_keep_every_plan(name, monkeypatch):
    """Drawing kind indices against precomputed weights takes the same
    random numbers as drawing kind names: every plan stays the same."""
    profile = APP_PROFILES[name]
    new = [generate_structure(profile, seed) for seed in (0, 1, 1234)]
    monkeypatch.setattr(generator, "_draw_work",
                        lambda profile, rng, _mix: _old_draw_work(profile, rng))
    old = [generate_structure(profile, seed) for seed in (0, 1, 1234)]
    for a, b in zip(new, old):
        assert a.functions == b.functions
        assert a.dispatch_table == b.dispatch_table
        assert np.array_equal(a.data, b.data)


@pytest.mark.parametrize("name", sorted(APP_PROFILES) + ["tiny"])
def test_cdf_draw_equals_generator_choice(name):
    """A search of the prebuilt CDF gives exactly the indices
    ``Generator.choice`` draws for the same weights, and leaves the
    generator where ``choice`` leaves it, for every size and seed."""
    profile = APP_PROFILES.get(name, _TINY)
    names, cdf = generator._mix_cdf(profile)
    weights = np.asarray([profile.mix[k] for k in names], dtype=np.float64)
    weights /= weights.sum()
    for seed in range(40):
        for size in (0, 1, 2, 3, 7, 16, 33, 100, 1000):
            ours = np.random.default_rng([seed, size])
            theirs = np.random.default_rng([seed, size])
            drawn = cdf.searchsorted(ours.random(size), side="right")
            chosen = theirs.choice(len(names), size=size, p=weights)
            assert np.array_equal(drawn, chosen), (seed, size)
            assert ours.random() == theirs.random(), (seed, size)


def test_zipf_dispatch_concentrates_hotness():
    structure = generate_structure(_TINY, seed=9)
    counts = {}
    for name in structure.dispatch_table:
        counts[name] = counts.get(name, 0) + 1
    shares = sorted(counts.values(), reverse=True)
    assert shares[0] > shares[-1]


def test_all_paper_profiles_build_and_run():
    for name, profile in APP_PROFILES.items():
        program = build_app(profile, scale=0.01, seed=1)
        result = run_program(program)
        assert result.blocks_executed > 0, name


def test_profile_lookup():
    assert get_profile("mcf").name == "mcf"
    with pytest.raises(WorkloadError, match="unknown application"):
        get_profile("doom")


def test_profile_validation():
    with pytest.raises(WorkloadError, match="unknown mix"):
        AppProfile(
            name="bad", description="", n_functions=5, levels=2,
            zipf_exponent=1.0, block_size=(3, 5),
            tests_per_function=(1, 2), taken_bias=(64, 192),
            p_loop=0.5, loop_trips=(2, 4), p_call=0.5,
            mix={"quantum": 1.0},
        )
    with pytest.raises(WorkloadError, match="degenerate"):
        AppProfile(
            name="bad", description="", n_functions=1, levels=1,
            zipf_exponent=1.0, block_size=(3, 5),
            tests_per_function=(1, 2), taken_bias=(64, 192),
            p_loop=0.5, loop_trips=(2, 4), p_call=0.5,
            mix={"alu": 1.0},
        )


def test_structural_signatures():
    """Profiles should differ in the direction the paper describes."""
    xalanc = get_profile("xalancbmk")
    povray = get_profile("povray")
    assert xalanc.block_size[1] < povray.block_size[1]     # tinier blocks
    assert xalanc.tests_per_function[1] > povray.tests_per_function[1]
    mcf = get_profile("mcf")
    assert "load_dram" in mcf.mix                          # memory-bound
    fullcms = get_profile("fullcms")
    assert fullcms.levels >= 5                             # deep call chains
    assert fullcms.p_call >= 0.8


def test_registry_integration():
    from repro.workloads.registry import APP_NAMES, get_workload
    assert set(APP_NAMES) == {"mcf", "povray", "omnetpp", "xalancbmk",
                              "fullcms"}
    workload = get_workload("omnetpp")
    program = workload.build(scale=0.01)
    assert program.name == "omnetpp"


def test_workload_scale_validation():
    from repro.workloads.registry import get_workload
    with pytest.raises(WorkloadError, match="scale"):
        get_workload("mcf").build(scale=0)
