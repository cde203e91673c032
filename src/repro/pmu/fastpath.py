"""Event-driven sampling: O(samples) overflow delivery.

The reference :class:`~repro.pmu.sampler.Sampler` materializes full
per-instruction arrays (latency classes, retirement cycles, cumulative uop
counts) and then touches only a handful of positions per sample.  This
module replaces those arrays with a :class:`RetireIndex`: a block-occurrence
level index answering exactly the two queries sampling needs —

``at(idx)``
    the retirement cycle of instruction ``idx`` (point lookup), and
``search(cycles, side)``
    ``np.searchsorted(retire_cycles, cycles, side)`` without the array.

The index's own arrays have one entry per *block occurrence*, and the
only per-instruction array it reads is the trace's int32
:attr:`~repro.cpu.trace.Trace.occurrence_index` (built once per trace and
shared by every machine).  The key identity: within one occurrence of
block ``b`` the retirement cycle is

``retire(start + j) = (start + j) // W  +  occ_base[k]  +  prefix_b(j)``

where ``prefix_b`` is the block's static inclusive visible-stall prefix
(a per-program pool cumsum) and ``occ_base[k]`` folds the stalls of all
earlier occurrences plus the mispredict-refill penalties that land, by
construction, exactly on occurrence boundaries.  A point lookup reads the
instruction's occurrence ``k`` from the occurrence index.  Since
``retire`` is non-decreasing, a threshold query binary-searches the
per-occurrence last-retire array, then resolves the position inside one
block with a vectorized bisection over at most ``log2(max block size)``
steps.

:class:`FastSampler` mirrors :meth:`Sampler._collect` line for line —
same RNG draw order, same thresholds, same capture formulas — so its
:class:`~repro.pmu.sampler.SampleBatch` is bit-identical to the reference
(the differential suite in ``tests/cpu/test_fastengine.py`` enforces it).
"""

from __future__ import annotations

import numpy as np

from repro.cpu.machine import Execution
from repro.errors import PMUConfigError
from repro.obs import count, span
from repro.pmu.events import EventKind, Precision
from repro.pmu.lbr import LBRFacility
from repro.pmu.overflow import overflow_thresholds
from repro.pmu.sampler import SampleBatch, SamplingConfig, drop_flushed_ibs


def _first_meeting(sizes: np.ndarray, meets) -> np.ndarray:
    """Per query, the first in-occurrence offset ``j`` in ``[0, size)`` at
    which ``meets(j)`` holds (int64).

    ``meets`` maps an offset array to a bool array; it must be monotone in
    ``j`` and hold at ``size - 1``, which the occurrence search guarantees.
    A vectorized binary search: ``ceil(log2(max size))`` steps of a few
    vector ops each, never a (queries x block size) table.
    """
    last = sizes - 1
    pos = np.zeros(sizes.shape, dtype=np.int64)
    for bit in reversed(range(int(last.max(initial=0)).bit_length())):
        step = 1 << bit
        # Every offset below ``pos`` fails; skip ``step`` more if the last
        # of them fails too.  Probes past the end clamp to ``size - 1``,
        # where ``meets`` holds, so ``pos`` never leaves the occurrence.
        pos += step * ~meets(np.minimum(pos + (step - 1), last))
    return pos


class RetireIndex:
    """Occurrence-level index over one execution's retirement timeline."""

    def __init__(self, execution: Execution) -> None:
        trace = execution.trace
        uarch = execution.uarch
        tables = trace.program.tables
        self._trace = trace
        self.n = trace.num_instructions
        self.width = uarch.retire_width
        self.seq = trace.block_seq
        self.occ_starts = trace.occurrence_starts
        self.occ_sizes = trace.occurrence_sizes
        self.instr_offset = tables.instr_offset
        self._tables = tables

        # Static per-block stall prefixes (pool-level, O(program size)).
        pool_stall = uarch.visible_stall_lut()[tables.pool_latclass]
        pool_stall = pool_stall.astype(np.int64)
        self.pool_cumstall = np.cumsum(pool_stall)
        pool_excl = self.pool_cumstall - pool_stall
        off = tables.instr_offset
        self.block_stall_base = pool_excl[off]
        block_last = off + tables.block_sizes.astype(np.int64) - 1
        block_stall_total = self.pool_cumstall[block_last] \
            - self.block_stall_base

        # Dynamic per-occurrence bases (O(block occurrences)).
        seq = self.seq
        occ_total = block_stall_total[seq]
        pen = uarch.mispredict_penalty_cycles
        if pen > 0:
            # The refill bubble delays the instruction *after* a mispredicted
            # terminator — the first instruction of the next occurrence — so
            # folding it per-occurrence loses nothing: occurrence k absorbs
            # one penalty per mispredicted occurrence before it.  Adding the
            # penalties into the per-occurrence totals lets one cumsum carry
            # both the stall and the bubble prefixes.
            penalties = execution.predictor.occurrence_mispredicts * pen
            adjusted = occ_total + penalties
            incl = np.cumsum(adjusted)
            occ_base = incl - adjusted
            # Inclusive of this occurrence's stalls, exclusive of its own
            # (boundary-landing) bubble.
            occ_incl = incl - penalties
        else:
            occ_incl = np.cumsum(occ_total)
            occ_base = occ_incl - occ_total
        self.occ_base = occ_base
        width = self.width
        ends = trace.occurrence_ends
        if width & (width - 1) == 0:
            # The only occurrence-wide division; int64 division is the
            # slowest vector op in this constructor, and every modelled
            # machine with a power-of-two retire width can shift instead.
            retired_at_end = ends >> (width.bit_length() - 1)
        else:
            retired_at_end = ends // width
        self.occ_last_retire = retired_at_end + occ_incl

        self._uop_arrays = None

    # -- retirement-cycle queries -----------------------------------------

    def at(self, idx: np.ndarray) -> np.ndarray:
        """``retire_cycles[idx]`` for in-range trace indices (int64)."""
        idx = np.asarray(idx, dtype=np.int64)
        k = self._trace.occurrence_index[idx]
        b = self.seq[k]
        pos = self.instr_offset[b] + (idx - self.occ_starts[k])
        return (idx // self.width + self.occ_base[k]
                + self.pool_cumstall[pos] - self.block_stall_base[b])

    def search(self, cycles: np.ndarray, side: str) -> np.ndarray:
        """``np.searchsorted(retire_cycles, cycles, side)`` (int64).

        Entries past the last retirement resolve to ``n`` (the same
        out-of-trace sentinel the reference arrays produce).
        """
        cycles = np.asarray(cycles, dtype=np.int64)
        k = np.searchsorted(self.occ_last_retire, cycles, side=side)
        hit = k < self.seq.size
        if hit.all():
            out = None
            kk, c = k, cycles
        else:
            out = np.full(cycles.shape, self.n, dtype=np.int64)
            if not hit.any():
                return out
            kk = k[hit]
            c = cycles[hit]
        b = self.seq[kk]
        start = self.occ_starts[kk]
        off = self.instr_offset[b]
        # Fold the per-occurrence and per-block offsets into the query:
        # retire(start+j) cmp c  <=>  (start+j)//W + cumstall[off+j] cmp rel.
        rel = c - self.occ_base[kk] + self.block_stall_base[b]
        width = self.width
        cumstall = self.pool_cumstall
        if side == "right":
            def meets(j):
                return (start + j) // width + cumstall[off + j] > rel
        else:
            def meets(j):
                return (start + j) // width + cumstall[off + j] >= rel
        res = start + _first_meeting(self.occ_sizes[kk], meets)
        if out is None:
            return res
        out[hit] = res
        return out

    # -- cumulative-uop queries (built lazily; only IBS/UOPS events pay) ---

    def _uops(self):
        if self._uop_arrays is None:
            tables = self._tables
            pool_u = tables.pool_uops.astype(np.int64)
            pool_cumu = np.cumsum(pool_u)
            pool_excl = pool_cumu - pool_u
            off = tables.instr_offset
            ubase = pool_excl[off]
            block_last = off + tables.block_sizes.astype(np.int64) - 1
            utotal = pool_cumu[block_last] - ubase
            occ_total = utotal[self.seq]
            occ_ulast = np.cumsum(occ_total)
            self._uop_arrays = (pool_cumu, ubase, occ_ulast,
                                occ_ulast - occ_total)
        return self._uop_arrays

    @property
    def total_uops(self) -> int:
        """``cumulative_uops[-1]`` without the per-instruction array."""
        _, _, occ_ulast, _ = self._uops()
        return int(occ_ulast[-1])

    def uop_search(self, thresholds: np.ndarray) -> np.ndarray:
        """``np.searchsorted(cumulative_uops, thresholds, "left")``."""
        pool_cumu, ubase, occ_ulast, occ_uexcl = self._uops()
        thresholds = np.asarray(thresholds, dtype=np.int64)
        k = np.searchsorted(occ_ulast, thresholds, side="left")
        hit = k < self.seq.size
        if hit.all():
            out = None
            kk, t = k, thresholds
        else:
            out = np.full(thresholds.shape, self.n, dtype=np.int64)
            if not hit.any():
                return out
            kk = k[hit]
            t = thresholds[hit]
        b = self.seq[kk]
        off = self.instr_offset[b]
        # First j in the block with inclusive uop prefix >= the residual.
        target = t - occ_uexcl[kk] + ubase[b]
        res = self.occ_starts[kk] + _first_meeting(
            self.occ_sizes[kk], lambda j: pool_cumu[off + j] >= target)
        if out is None:
            return res
        out[hit] = res
        return out


class FastSampler:
    """Drop-in for :class:`~repro.pmu.sampler.Sampler` using a RetireIndex.

    Every formula below restates the corresponding reference capture model
    (:mod:`repro.pmu.skid`, :mod:`repro.pmu.pebs`, :mod:`repro.pmu.ibs`)
    in terms of index queries; RNG consumption order is identical.
    """

    def __init__(self, execution: Execution, index: RetireIndex) -> None:
        self.execution = execution
        self.index = index

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

    def _total_events(self, kind: EventKind) -> int:
        trace = self.execution.trace
        if kind is EventKind.INSTRUCTIONS:
            return trace.num_instructions
        if kind is EventKind.UOPS:
            return self.index.total_uops
        if kind is EventKind.TAKEN_BRANCHES:
            return trace.num_taken_branches
        raise PMUConfigError(f"unknown event kind {kind!r}")

    def _triggers_for(
        self, kind: EventKind, thresholds: np.ndarray
    ) -> np.ndarray:
        trace = self.execution.trace
        if kind is EventKind.INSTRUCTIONS:
            return thresholds - 1
        if kind is EventKind.UOPS:
            return self.index.uop_search(thresholds)
        if kind is EventKind.TAKEN_BRANCHES:
            # The k-th taken branch retires at taken_positions[k - 1]:
            # equivalent to searchsorted(cumulative_taken, k, "left").
            return trace.taken_positions[thresholds - 1]
        raise PMUConfigError(f"unknown event kind {kind!r}")

    def _collect(
        self, config: SamplingConfig, rng: np.random.Generator
    ) -> SampleBatch:
        config.validate_uarch(self.execution.uarch)
        trace = self.execution.trace
        uarch = self.execution.uarch
        index = self.index
        n = trace.num_instructions

        total = self._total_events(config.event.kind)
        phase = (
            int(rng.integers(0, config.period.base))
            if config.random_phase else 0
        )
        thresholds, periods = overflow_thresholds(
            config.period, total, rng, phase=phase
        )

        precision = config.event.precision
        if precision is Precision.IBS:
            group = uarch.ibs_dispatch_group
            quantized = thresholds
            if group > 1:
                quantized = (thresholds - 1) // group * group + 1
            tagged = index.uop_search(quantized)
            arming = uarch.ibs_arming_cycles
            if arming <= 0:
                reported = tagged
            else:
                reported = index.search(index.at(tagged) + arming,
                                        side="right")
            reported = drop_flushed_ibs(
                reported, n,
                self.execution.predictor.mispredict_positions,
                uarch.ibs_flush_window,
            )
            trigger = reported
        else:
            trigger = self._triggers_for(config.event.kind, thresholds)
            if precision is Precision.IMPRECISE:
                delivery = index.at(trigger) + uarch.pmi_skid_cycles
                if uarch.pmi_jitter_cycles > 0:
                    delivery = delivery + rng.integers(
                        0, uarch.pmi_jitter_cycles,
                        size=delivery.shape, dtype=np.int64,
                    )
                reported = np.maximum(index.search(delivery, side="left"),
                                      trigger + 1)
            elif precision is Precision.PEBS:
                reported = index.search(
                    index.at(trigger) + uarch.pebs_arming_cycles,
                    side="right",
                )
            elif precision is Precision.PDIR:
                reported = np.minimum(trigger + 1, n)
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
