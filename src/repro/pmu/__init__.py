"""Simulated Performance Monitoring Unit.

Models the counting-and-capture chain the paper studies: a counter counts a
retirement-stream event, overflows every *period* events, and a capture
mechanism decides which instruction address the resulting sample reports.
The mechanisms differ exactly where the paper says they do:

* imprecise PMI delivery with skid and shadow (:mod:`repro.pmu.skid`),
* PEBS next-event capture with retirement-burst aliasing and PDIR's
  precisely-distributed capture (:mod:`repro.pmu.pebs`),
* AMD IBS uop-granularity tagging (:mod:`repro.pmu.ibs`),
* the 16-deep Last Branch Record stack (:mod:`repro.pmu.lbr`).

:class:`~repro.pmu.fastpath.FastSampler` ties these together; the
per-instruction :class:`~repro.pmu.sampler.Sampler` is the oracle it is
checked against (:class:`~repro.cpu.engine.ReferenceEngine` only).
"""

from repro.pmu.events import Event, EventKind, Precision, event_catalog, get_event
from repro.pmu.periods import PeriodPolicy, Randomization, is_prime, next_prime
from repro.pmu.overflow import overflow_thresholds, total_events, triggers_for
from repro.pmu.skid import deliver_imprecise
from repro.pmu.pebs import capture_pebs, capture_pdir
from repro.pmu.ibs import capture_ibs
from repro.pmu.lbr import LBRFacility, LBRStack
from repro.pmu.sampler import SampleBatch, SamplingConfig
from repro.pmu.counting import CounterReading, is_deterministic, read_counter

__all__ = [
    "CounterReading",
    "read_counter",
    "is_deterministic",
    "Event",
    "EventKind",
    "Precision",
    "event_catalog",
    "get_event",
    "PeriodPolicy",
    "Randomization",
    "is_prime",
    "next_prime",
    "overflow_thresholds",
    "total_events",
    "triggers_for",
    "deliver_imprecise",
    "capture_pebs",
    "capture_pdir",
    "capture_ibs",
    "LBRFacility",
    "LBRStack",
    "SampleBatch",
    "SamplingConfig",
]
