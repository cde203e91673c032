"""Simulated CPU substrate.

This package turns a synthetic-ISA :class:`~repro.isa.program.Program` into a
*retirement stream*: the dynamic sequence of retired instructions, each with
an address and a retirement cycle. All the sampling phenomena the paper
studies (skid, shadow, synchronization, retirement-burst clustering) are
properties of that stream, so a full pipeline model is unnecessary; see
DESIGN.md section 5.

Public API:

* :class:`~repro.cpu.uarch.Microarchitecture` and the three paper machines
  :data:`~repro.cpu.uarch.WESTMERE`, :data:`~repro.cpu.uarch.IVY_BRIDGE`,
  :data:`~repro.cpu.uarch.MAGNY_COURS`
* :func:`~repro.cpu.interpreter.run_program`, the one driver (its oracle
  is :func:`repro.cpu.engine.interpret`)
* :class:`~repro.cpu.trace.Trace`
* :func:`~repro.cpu.retirement.retirement_cycles`
* :class:`~repro.cpu.machine.Machine`, :class:`~repro.cpu.machine.Execution`
"""

from repro.cpu.uarch import (
    Microarchitecture,
    WESTMERE,
    IVY_BRIDGE,
    MAGNY_COURS,
    ALL_UARCHES,
    get_uarch,
)
from repro.cpu.interpreter import run_program, InterpreterResult
from repro.cpu.trace import Trace
from repro.cpu.retirement import retirement_cycles
from repro.cpu.machine import Machine, Execution
from repro.cpu.prediction import BranchPredictor
from repro.cpu.metrics import ExecutionMetrics, collect_metrics

__all__ = [
    "BranchPredictor",
    "ExecutionMetrics",
    "collect_metrics",
    "Microarchitecture",
    "WESTMERE",
    "IVY_BRIDGE",
    "MAGNY_COURS",
    "ALL_UARCHES",
    "get_uarch",
    "run_program",
    "InterpreterResult",
    "Trace",
    "retirement_cycles",
    "Machine",
    "Execution",
]
