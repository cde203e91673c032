"""The ``Engine`` seam: the execution/sampling back-end behind a harness.

An engine owns the three expensive stages of a cell evaluation — running a
program to its dynamic block sequence, observing the trace on a machine, and
collecting PMU samples — behind one small protocol.

One engine runs the product: :class:`repro.cpu.fastengine.FastEngine`
(counted-loop lane vectorization for the interpreter, shared executions per
(machine, trace), and O(samples) overflow delivery in
:mod:`repro.pmu.fastpath`).  Every :class:`~repro.core.experiment.Harness`
creates one on first use.

:class:`ReferenceEngine` is the oracle: the per-block interpreter
(:func:`repro.cpu.interpreter.run_program`), a fresh
:class:`~repro.cpu.machine.Execution` per request, and the per-instruction
:class:`~repro.pmu.sampler.Sampler`.  It is the readable statement of the
model; the differential suite in ``tests/cpu/test_fastengine.py`` holds
the fast engine bit-identical to it at the interpreter, sampler, harness
cell and fidelity levels.  Pass an instance to ``Harness(engine=...)`` to
debug a result against it.
"""

from __future__ import annotations

from typing import Protocol

from repro.cpu.interpreter import DEFAULT_FUEL, InterpreterResult, run_program
from repro.cpu.machine import Execution, Machine
from repro.cpu.trace import Trace
from repro.cpu.uarch import Microarchitecture


class Engine(Protocol):
    """What the harness needs from an execution back-end."""

    def program(self, workload_name: str, scale: float = 1.0):
        """Build (or reuse) a workload's program at one scale."""

    def run(self, program, fuel: int = DEFAULT_FUEL) -> InterpreterResult:
        """Execute ``program`` to its dynamic block sequence."""

    def trace(self, program, fuel: int = DEFAULT_FUEL) -> Trace:
        """Execute ``program`` and wrap the result in a :class:`Trace`."""

    def execution(self, uarch: Microarchitecture, trace: Trace) -> Execution:
        """Observe ``trace`` on a machine (may share across calls)."""

    def sampler(self, execution: Execution):
        """A collector with ``collect(config, rng) -> SampleBatch``."""


class ReferenceEngine:
    """The exact oracle path: one fresh Execution per call."""

    def program(self, workload_name: str, scale: float = 1.0):
        from repro.workloads.registry import get_workload

        return get_workload(workload_name).build(scale=scale)

    def run(self, program, fuel: int = DEFAULT_FUEL) -> InterpreterResult:
        return run_program(program, fuel=fuel)

    def trace(self, program, fuel: int = DEFAULT_FUEL) -> Trace:
        return Trace(program, self.run(program, fuel=fuel).block_seq)

    def execution(self, uarch: Microarchitecture, trace: Trace) -> Execution:
        return Machine(uarch).attach(trace)

    def sampler(self, execution: Execution):
        from repro.pmu.sampler import Sampler

        return Sampler(execution)
