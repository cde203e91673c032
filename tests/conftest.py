"""Shared fixtures: small handcrafted programs, traces, and executions."""

from __future__ import annotations

import numpy as np
import pytest

from repro import IVY_BRIDGE, Machine, ProgramBuilder
from repro.cpu.trace import Trace
from repro.cpu.interpreter import run_program


def build_counted_loop(iterations: int = 50, body_pad: int = 3):
    """A minimal loop program: entry -> head -> body -> latch -> exit.

    The body has ``body_pad`` single-cycle filler instructions, making the
    per-iteration instruction count predictable for assertions.
    """
    b = ProgramBuilder("counted_loop")
    f = b.function("main")
    f.block("entry")
    f.li(0, iterations)
    f.block("head")
    f.alu_burst(body_pad)
    f.block("latch")
    f.subi(0, 0, 1)
    f.bnei(0, 0, "head")
    f.block("exit")
    f.halt()
    return b.build()


def build_call_pair(iterations: int = 20):
    """A loop that calls one helper per iteration (exercises CALL/RET)."""
    b = ProgramBuilder("call_pair")
    f = b.function("main")
    f.block("entry")
    f.li(0, iterations)
    f.block("head")
    f.call("helper")
    f.block("latch")
    f.subi(0, 0, 1)
    f.bnei(0, 0, "head")
    f.block("exit")
    f.halt()
    h = b.function("helper")
    h.block("body")
    h.alu_burst(4)
    h.ret()
    return b.build()


def build_branchy(iterations: int = 64, seed: int = 7):
    """A data-driven if/else diamond in a loop (exercises COND both ways)."""
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 2, size=256, dtype=np.int64)
    b = ProgramBuilder("branchy", data=data)
    f = b.function("main")
    f.block("entry")
    f.li(0, iterations)
    f.li(1, 0)
    f.block("head")
    f.load(2, 1)
    f.bnei(2, 0, "odd")
    f.block("even")
    f.alu_burst(2)
    f.jmp("latch")
    f.block("odd")
    f.alu_burst(4)
    f.block("latch")
    f.addi(1, 1, 1)
    f.subi(0, 0, 1)
    f.bnei(0, 0, "head")
    f.block("exit")
    f.halt()
    return b.build()


@pytest.fixture(scope="session")
def loop_program():
    return build_counted_loop()


@pytest.fixture(scope="session")
def call_program():
    return build_call_pair()


@pytest.fixture(scope="session")
def branchy_program():
    return build_branchy()


@pytest.fixture(scope="session")
def loop_trace(loop_program) -> Trace:
    result = run_program(loop_program)
    return Trace(loop_program, result.block_seq)


@pytest.fixture(scope="session")
def branchy_trace(branchy_program) -> Trace:
    result = run_program(branchy_program)
    return Trace(branchy_program, result.block_seq)


@pytest.fixture(scope="session")
def call_trace(call_program) -> Trace:
    result = run_program(call_program)
    return Trace(call_program, result.block_seq)


@pytest.fixture(scope="session")
def loop_execution(loop_trace):
    return Machine(IVY_BRIDGE).attach(loop_trace)


@pytest.fixture(scope="session")
def branchy_execution(branchy_trace):
    return Machine(IVY_BRIDGE).attach(branchy_trace)


@pytest.fixture(scope="session")
def kernel_traces():
    """Small-scale traces of all four paper kernels, keyed by name."""
    from repro.workloads.registry import KERNEL_NAMES, get_workload

    traces = {}
    for name in KERNEL_NAMES:
        program = get_workload(name).build(scale=0.02)
        result = run_program(program)
        traces[name] = Trace(program, result.block_seq)
    return traces


#: The workloads of the benchmark's campaign: the slice-dispatch and
#: occurrence-index paths see these at paper scale.
CAMPAIGN_WORKLOADS = ("callchain", "phased", "interleaved", "memaccess",
                      "omnetpp")


@pytest.fixture(scope="session")
def campaign_traces():
    """Small-scale traces of the campaign workloads, keyed by name."""
    from repro.core.experiment import ExperimentConfig, Harness

    harness = Harness(ExperimentConfig(scale=0.02))
    return {name: harness.trace(name) for name in CAMPAIGN_WORKLOADS}
