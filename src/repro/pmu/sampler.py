"""The sampling front-end: configure an event + period, collect samples.

A collector plays the role of the (modified) ``perf`` utility in the
paper's setup: it programs the simulated PMU, lets the workload "run", and
returns the batch of samples a profiler would post-process.  The library
collects with :class:`~repro.pmu.fastpath.FastSampler`; :class:`Sampler`
here, per instruction, is the oracle it is checked against, and only
:class:`~repro.cpu.engine.ReferenceEngine` uses it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PMUConfigError
from repro.cpu.machine import Execution
from repro.cpu.uarch import Microarchitecture
from repro.obs import count, span
from repro.pmu.events import Event, Precision, validate_event
from repro.pmu.ibs import capture_ibs
from repro.pmu.lbr import LBRFacility
from repro.pmu.overflow import overflow_thresholds, total_events, triggers_for
from repro.pmu.pebs import capture_pebs, capture_pdir
from repro.pmu.periods import PeriodPolicy, Randomization
from repro.pmu.skid import deliver_imprecise


@dataclass(frozen=True)
class SamplingConfig:
    """One PMU programming: event, period policy, optional LBR collection.

    ``random_phase`` models run-to-run variation of the first overflow's
    position (startup code, OS noise): the counter starts at a random offset
    within one period. Repeated runs of a deterministic (non-randomized)
    configuration then differ in phase but not in period structure — exactly
    the variance the paper's five-repeat measurements exhibit.
    """

    event: Event
    period: PeriodPolicy
    collect_lbr: bool = False
    random_phase: bool = False

    def validate_uarch(self, uarch: Microarchitecture) -> None:
        """Check feasibility on a machine."""
        validate_event(uarch, self.event)
        if self.collect_lbr and not uarch.has_lbr:
            raise PMUConfigError(f"{uarch.name} has no LBR facility")
        if (self.period.randomization is Randomization.HARDWARE_4LSB
                and not uarch.has_ibs):
            raise PMUConfigError(
                f"{uarch.name} has no hardware period randomization"
            )


@dataclass
class SampleBatch:
    """Samples collected from one run of one sampling configuration.

    All arrays are parallel, one entry per *delivered* sample (overflows
    whose capture fell past the end of the trace are already dropped).
    """

    execution: Execution
    config: SamplingConfig
    trigger_idx: np.ndarray       # int64: instruction that overflowed the counter
    reported_idx: np.ndarray      # int64: instruction whose IP the sample reports
    period_weights: np.ndarray    # int64: period preceding each sample
    #: LBR stack ranges (start, end) into the trace taken-branch tables,
    #: present iff the config collected LBRs.
    lbr_ranges: tuple[np.ndarray, np.ndarray] | None = None
    #: Number of overflows whose delivery fell past the end of the trace.
    dropped: int = 0

    @property
    def num_samples(self) -> int:
        return int(self.reported_idx.size)

    @property
    def nominal_period(self) -> int:
        """The configured base period.

        Profilers attribute this per sample: even when the hardware or the
        tool randomizes the actual reload values, the post-processing side
        works from the period it programmed (perf's randomized low bits are
        not echoed back per sample).
        """
        return self.config.period.base

    @property
    def reported_addresses(self) -> np.ndarray:
        """Virtual address reported by each sample (int64)."""
        return self.execution.trace.addresses_at(self.reported_idx)

    def lbr_facility(self) -> LBRFacility:
        """The LBR reader for this batch's trace."""
        return LBRFacility(self.execution.trace, self.execution.uarch.lbr_depth)


def drop_flushed_ibs(
    reported: np.ndarray,
    n: int,
    mispredicts: np.ndarray,
    window: int,
) -> np.ndarray:
    """Mark IBS captures in a wrong-path dispatch window as lost.

    Returns a copy with flushed captures set past the end of the trace
    (``n``) so the common validity filter drops them.  Shared by the
    reference :class:`Sampler` and :class:`repro.pmu.fastpath.FastSampler`
    so both engines apply one flush model.
    """
    if window <= 0 or reported.size == 0 or mispredicts.size == 0:
        return reported
    clipped = np.minimum(reported, n - 1)
    k = np.searchsorted(mispredicts, clipped, side="right")
    has_prev = k > 0
    prev_pos = mispredicts[np.maximum(k - 1, 0)]
    flushed = has_prev & (clipped - prev_pos <= window) \
        & (clipped > prev_pos)
    out = reported.copy()
    out[flushed] = n
    return out


class Sampler:
    """Collects event-based samples from an :class:`Execution`."""

    def __init__(self, execution: Execution) -> None:
        self.execution = execution

    def _drop_flushed_ibs(self, reported: np.ndarray) -> np.ndarray:
        return drop_flushed_ibs(
            reported,
            self.execution.trace.num_instructions,
            self.execution.predictor.mispredict_positions,
            self.execution.uarch.ibs_flush_window,
        )

    def collect(
        self, config: SamplingConfig, rng: np.random.Generator
    ) -> SampleBatch:
        """Run one sampling session and return the delivered samples."""
        with span("sample",
                  event=config.event.name,
                  period=config.period.base,
                  lbr=config.collect_lbr) as sp:
            batch = self._collect(config, rng)
            sp.set(samples=batch.num_samples, dropped=batch.dropped)
        count("samples.collected", batch.num_samples)
        count("samples.dropped", batch.dropped)
        if batch.lbr_ranges is not None:
            start, end = batch.lbr_ranges
            count("lbr.records", int((end - start).sum()))
        return batch

    def _collect(
        self, config: SamplingConfig, rng: np.random.Generator
    ) -> SampleBatch:
        config.validate_uarch(self.execution.uarch)
        trace = self.execution.trace
        uarch = self.execution.uarch
        n = trace.num_instructions

        total = total_events(config.event.kind, trace)
        phase = (
            int(rng.integers(0, config.period.base))
            if config.random_phase else 0
        )
        thresholds, periods = overflow_thresholds(
            config.period, total, rng, phase=phase
        )

        precision = config.event.precision
        if precision is Precision.IBS:
            reported = capture_ibs(
                thresholds,
                trace.cumulative_uops,
                self.execution.retire_cycles,
                arming_cycles=uarch.ibs_arming_cycles,
                dispatch_group=uarch.ibs_dispatch_group,
            )
            # IBS tags at dispatch: tags landing in the wrong-path window
            # after a mispredicted branch are flushed and the sample lost.
            reported = self._drop_flushed_ibs(reported)
            trigger = reported
        else:
            trigger = triggers_for(config.event.kind, trace, thresholds)
            retire = self.execution.retire_cycles
            if precision is Precision.IMPRECISE:
                reported = deliver_imprecise(
                    trigger,
                    retire,
                    uarch.pmi_skid_cycles,
                    jitter_cycles=uarch.pmi_jitter_cycles,
                    rng=rng,
                )
            elif precision is Precision.PEBS:
                reported = capture_pebs(
                    trigger, retire, arming_cycles=uarch.pebs_arming_cycles
                )
            elif precision is Precision.PDIR:
                reported = capture_pdir(trigger, n)
            else:  # pragma: no cover - enum is exhaustive
                raise PMUConfigError(f"unhandled precision {precision!r}")

        valid = reported < n
        dropped = int((~valid).sum())
        trigger = trigger[valid]
        reported = reported[valid]
        periods = periods[valid]

        lbr_ranges = None
        if config.collect_lbr:
            facility = LBRFacility(trace, uarch.lbr_depth)
            # An imprecise PMI freezes the stack after the reported
            # instruction retires (its branch, if any, is recorded); a
            # precise record captures architectural state *before* the
            # reported instruction, so its own branch is absent.
            inclusive = precision is Precision.IMPRECISE
            lbr_ranges = facility.stack_ranges(reported, inclusive=inclusive)

        return SampleBatch(
            execution=self.execution,
            config=config,
            trigger_idx=trigger,
            reported_idx=reported,
            period_weights=periods,
            lbr_ranges=lbr_ranges,
            dropped=dropped,
        )
