"""Microarchitecture descriptors for the three machines of the paper.

Each descriptor carries the timing parameters the retirement model needs and
the PMU feature matrix (Section 4.2 of the paper):

* **Westmere** (Xeon X5650): fixed architectural counter, PEBS, LBR;
  no precisely-distributed event.
* **Ivy Bridge** (Xeon E3-1265L): adds ``INST_RETIRED.PREC_DIST`` (PDIR).
* **Magny-Cours** (Opteron 6164 HE): no fixed counter, no LBR; IBS is the
  precise mechanism and works at *uop* granularity, with hardware
  randomization of the 4 least-significant period bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PMUConfigError
from repro.isa.opcodes import LatencyClass


@dataclass(frozen=True)
class Microarchitecture:
    """Static description of a simulated CPU + PMU.

    Attributes
    ----------
    retire_width:
        Maximum instructions retired per cycle (burst width).
    latency_cycles:
        Execution latency in cycles per :class:`LatencyClass`.
    ooo_hide_cycles:
        Latency up to this many cycles is fully hidden by out-of-order
        execution; only the excess stalls retirement.
    pmi_skid_cycles:
        Delivery delay of an imprecise PMI, in cycles. The reported IP is
        the next instruction to retire this many cycles after overflow.
    pmi_jitter_cycles:
        Run-time variation of the PMI delivery delay (bus traffic, pending
        uops, interrupt priorities): each delivery adds a uniform draw from
        ``[0, pmi_jitter_cycles)``. Precise captures (PEBS/PDIR/IBS) bypass
        interrupt delivery and are unaffected.
    pebs_arming_cycles:
        Latency between counter overflow and the PEBS assist arming; the
        capture records the first qualifying instruction retiring after this
        window. During long stalls the window parks the capture on the
        stalling instruction — the documented PEBS bias toward long-latency
        instructions that ``INST_RETIRED.PREC_DIST`` (PDIR) eliminates.
    has_fixed_counter:
        Whether an architectural fixed counter exists (Intel).
    has_pebs / has_pdir / has_ibs:
        Precise-sampling feature flags.
    lbr_depth:
        Number of LBR entries (0 = no LBR facility, else at least 2).
    ibs_dispatch_group:
        AMD only: uop dispatch-group width; with hardware period
        randomization enabled, IBS tag selection quantizes to dispatch-group
        boundaries (see DESIGN.md section 5).
    """

    name: str
    vendor: str
    retire_width: int
    latency_cycles: dict[LatencyClass, int]
    ooo_hide_cycles: int
    pmi_skid_cycles: int
    pmi_jitter_cycles: int
    pebs_arming_cycles: int
    has_fixed_counter: bool
    has_pebs: bool
    has_pdir: bool
    has_ibs: bool
    lbr_depth: int
    #: Pipeline-refill bubble after a mispredicted branch, in cycles.
    mispredict_penalty_cycles: int = 14
    ibs_dispatch_group: int = 4
    ibs_arming_cycles: int = 3
    #: AMD only: instructions after a mispredicted branch whose dispatch
    #: window is polluted by wrong-path uops; IBS tags landing there are
    #: flushed with the wrong path and the sample is lost.
    ibs_flush_window: int = 24

    def __post_init__(self) -> None:
        if self.retire_width < 1:
            raise PMUConfigError(f"{self.name}: retire_width must be >= 1")
        if self.lbr_depth < 0:
            raise PMUConfigError(f"{self.name}: lbr_depth must be >= 0")
        if self.lbr_depth == 1:  # no segment fits: LBRFacility refuses it
            raise PMUConfigError(f"{self.name}: lbr_depth must be 0 or >= 2")
        for delay in ("ooo_hide_cycles", "pmi_skid_cycles",
                      "pmi_jitter_cycles", "pebs_arming_cycles",
                      "mispredict_penalty_cycles", "ibs_arming_cycles",
                      "ibs_flush_window"):
            if getattr(self, delay) < 0:
                raise PMUConfigError(f"{self.name}: {delay} must be >= 0")
        if self.ibs_dispatch_group < 1:
            raise PMUConfigError(
                f"{self.name}: ibs_dispatch_group must be >= 1")
        missing = [lc for lc in LatencyClass if lc not in self.latency_cycles]
        if missing:
            raise PMUConfigError(
                f"{self.name}: missing latency classes {missing}"
            )

    @property
    def has_lbr(self) -> bool:
        """Whether the machine has a Last Branch Record facility."""
        return self.lbr_depth > 0

    def latency_lut(self) -> np.ndarray:
        """Latency class -> cycles lookup table as an int32 array."""
        lut = np.zeros(len(LatencyClass), dtype=np.int32)
        for lc, cycles in self.latency_cycles.items():
            lut[int(lc)] = cycles
        return lut

    def visible_stall_lut(self) -> np.ndarray:
        """Latency class -> retirement-visible stall cycles (int32)."""
        lut = self.latency_lut() - self.ooo_hide_cycles
        np.maximum(lut, 0, out=lut)
        return lut


_INTEL_LATENCIES = {
    LatencyClass.SINGLE: 1,
    LatencyClass.SHORT: 3,
    LatencyClass.MEDIUM: 5,
    LatencyClass.LONG: 22,
    LatencyClass.MEM_L1: 4,
    LatencyClass.MEM_LLC: 40,
    LatencyClass.MEM_DRAM: 180,
}

_AMD_LATENCIES = {
    LatencyClass.SINGLE: 1,
    LatencyClass.SHORT: 3,
    LatencyClass.MEDIUM: 5,
    LatencyClass.LONG: 26,
    LatencyClass.MEM_L1: 4,
    LatencyClass.MEM_LLC: 45,
    LatencyClass.MEM_DRAM: 200,
}

#: Intel Xeon X5650 ("Westmere", 1st-gen Core i7 Xeon).
WESTMERE = Microarchitecture(
    name="westmere",
    vendor="intel",
    retire_width=4,
    latency_cycles=_INTEL_LATENCIES,
    ooo_hide_cycles=8,
    pmi_skid_cycles=16,
    pmi_jitter_cycles=8,
    pebs_arming_cycles=3,
    mispredict_penalty_cycles=15,
    has_fixed_counter=True,
    has_pebs=True,
    has_pdir=False,
    has_ibs=False,
    lbr_depth=16,
)

#: Intel Xeon E3-1265L ("Ivy Bridge", 3rd-gen Core).
IVY_BRIDGE = Microarchitecture(
    name="ivybridge",
    vendor="intel",
    retire_width=4,
    latency_cycles=_INTEL_LATENCIES,
    ooo_hide_cycles=8,
    pmi_skid_cycles=12,
    pmi_jitter_cycles=6,
    pebs_arming_cycles=2,
    mispredict_penalty_cycles=14,
    has_fixed_counter=True,
    has_pebs=True,
    has_pdir=True,
    has_ibs=False,
    lbr_depth=16,
)

#: AMD Opteron 6164 HE ("Magny-Cours").
MAGNY_COURS = Microarchitecture(
    name="magnycours",
    vendor="amd",
    retire_width=3,
    latency_cycles=_AMD_LATENCIES,
    ooo_hide_cycles=6,
    pmi_skid_cycles=24,
    pmi_jitter_cycles=12,
    pebs_arming_cycles=0,
    mispredict_penalty_cycles=13,
    has_fixed_counter=False,
    has_pebs=False,
    has_pdir=False,
    has_ibs=True,
    lbr_depth=0,
    ibs_dispatch_group=4,
    ibs_arming_cycles=3,
)

#: All paper machines, in the order used by the paper's tables.
ALL_UARCHES: tuple[Microarchitecture, ...] = (
    MAGNY_COURS,
    WESTMERE,
    IVY_BRIDGE,
)

_BY_NAME = {u.name: u for u in ALL_UARCHES}


def get_uarch(name: str) -> Microarchitecture:
    """Look up one of the paper's machines by name.

    Accepts ``"westmere"``, ``"ivybridge"``, and ``"magnycours"``.
    """
    try:
        return _BY_NAME[name.lower()]
    except KeyError:
        known = ", ".join(sorted(_BY_NAME))
        raise PMUConfigError(f"unknown uarch {name!r} (known: {known})") from None
