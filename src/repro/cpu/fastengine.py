"""The ``fast`` engine: the product's execution and sampling back-end.

:class:`FastEngine` runs programs through the one driver
(:func:`repro.cpu.interpreter.run_program`), shares one
:class:`~repro.cpu.machine.Execution` per (machine, trace) so retirement
and prediction are computed once per workload instead of once per cell,
and hands sampling to the O(samples) collector in
:mod:`repro.pmu.fastpath`.  Built programs are compilation artifacts
(pure functions of workload name, scale, and seed), cached across
harnesses by :func:`cached_program`; execution *results* are never cached
globally, so a cold run re-simulates everything.
"""

from __future__ import annotations

from repro.cpu.interpreter import DEFAULT_FUEL, run_program
from repro.cpu.machine import Execution, Machine
from repro.cpu.trace import Trace
from repro.cpu.uarch import Microarchitecture
from repro.isa.program import Program


# -- built-program cache (warm compilation state, keyed by identity inputs) --

_PROGRAM_CACHE: dict[tuple, Program] = {}
_PROGRAM_CACHE_CAP = 64


def cached_program(workload_name: str, scale: float) -> Program:
    """Build (or reuse) a workload program.

    Workload builds are deterministic in (name, scale, default seed), so the
    built program is compilation state, not an execution result; sharing it
    across harnesses is what lets a cold cell pay simulation cost only.
    """
    from repro.workloads.registry import get_workload

    workload = get_workload(workload_name)
    key = (workload_name, float(scale), workload.default_seed)
    program = _PROGRAM_CACHE.get(key)
    if program is None:
        if len(_PROGRAM_CACHE) >= _PROGRAM_CACHE_CAP:
            _PROGRAM_CACHE.clear()
        program = workload.build(scale=scale)
        program.finalize()
        _PROGRAM_CACHE[key] = program
    return program


class FastEngine:
    """Engine implementation backed by the one driver and the fast PMU."""

    def __init__(self) -> None:
        self._executions: dict[tuple, Execution] = {}
        self._retire_indexes: dict[tuple, object] = {}

    def program(self, workload_name: str, scale: float = 1.0) -> Program:
        return cached_program(workload_name, scale)

    def trace(self, program: Program, fuel: int = DEFAULT_FUEL) -> Trace:
        return Trace(program, run_program(program, fuel=fuel).block_seq)

    def execution(self, uarch: Microarchitecture, trace: Trace) -> Execution:
        """One shared Execution per (machine, trace).

        Sharing is engine-local (per harness), so prediction and retirement
        state never leak across benchmark rounds or processes.
        """
        key = (uarch.name, id(trace))
        execution = self._executions.get(key)
        if execution is None:
            execution = Machine(uarch).attach(trace)
            self._executions[key] = execution
        return execution

    def sampler(self, execution: Execution):
        from repro.pmu.fastpath import FastSampler, RetireIndex

        key = (execution.uarch.name, id(execution.trace))
        index = self._retire_indexes.get(key)
        if index is None:
            index = RetireIndex(execution)
            self._retire_indexes[key] = index
        return FastSampler(execution, index)
