"""Unit tests for microarchitecture descriptors."""

import dataclasses

import pytest

from repro.errors import PMUConfigError
from repro.cpu.uarch import (
    ALL_UARCHES,
    IVY_BRIDGE,
    MAGNY_COURS,
    WESTMERE,
    get_uarch,
)
from repro.isa.opcodes import LatencyClass


def test_paper_feature_matrix():
    # Section 4.2: the feature set of each machine.
    assert WESTMERE.has_pebs and not WESTMERE.has_pdir and WESTMERE.has_lbr
    assert IVY_BRIDGE.has_pebs and IVY_BRIDGE.has_pdir and IVY_BRIDGE.has_lbr
    assert MAGNY_COURS.has_ibs
    assert not MAGNY_COURS.has_lbr
    assert not MAGNY_COURS.has_fixed_counter
    assert not MAGNY_COURS.has_pebs


def test_lbr_depth_16_on_intel():
    assert WESTMERE.lbr_depth == 16
    assert IVY_BRIDGE.lbr_depth == 16
    assert MAGNY_COURS.lbr_depth == 0


def test_get_uarch_lookup():
    assert get_uarch("westmere") is WESTMERE
    assert get_uarch("IvyBridge") is IVY_BRIDGE
    with pytest.raises(PMUConfigError, match="unknown uarch"):
        get_uarch("zen5")


def test_latency_lut_covers_all_classes():
    for uarch in ALL_UARCHES:
        lut = uarch.latency_lut()
        assert lut.shape == (len(LatencyClass),)
        assert (lut >= 1).all()


def test_visible_stall_subtracts_hiding():
    lut = IVY_BRIDGE.visible_stall_lut()
    assert lut[int(LatencyClass.SINGLE)] == 0
    assert lut[int(LatencyClass.LONG)] == (
        IVY_BRIDGE.latency_cycles[LatencyClass.LONG]
        - IVY_BRIDGE.ooo_hide_cycles
    )
    assert (lut >= 0).all()


def test_invalid_retire_width_rejected():
    with pytest.raises(PMUConfigError, match="retire_width"):
        dataclasses.replace(IVY_BRIDGE, retire_width=0)


@pytest.mark.parametrize("depth", [1, -1])
def test_lbr_depth_that_holds_no_segment_rejected(depth):
    """A one-entry LBR would pass ``has_lbr`` and then fail every LBR
    collection; it is refused when the machine is made."""
    with pytest.raises(PMUConfigError, match="lbr_depth"):
        dataclasses.replace(IVY_BRIDGE, lbr_depth=depth)
    for ok in (0, 2):
        assert dataclasses.replace(IVY_BRIDGE, lbr_depth=ok).lbr_depth == ok


@pytest.mark.parametrize("field, value", [
    ("pmi_skid_cycles", -1), ("pmi_jitter_cycles", -1),
    ("ooo_hide_cycles", -1), ("pebs_arming_cycles", -1),
    ("ibs_arming_cycles", -1), ("mispredict_penalty_cycles", -1),
    ("ibs_flush_window", -1), ("ibs_dispatch_group", 0),
])
def test_negative_delay_or_empty_dispatch_group_rejected(field, value):
    """A negative delay or window, or an IBS dispatch group of no uops,
    describes no machine; each is refused when the machine is made."""
    with pytest.raises(PMUConfigError, match=field):
        dataclasses.replace(IVY_BRIDGE, **{field: value})
    assert getattr(dataclasses.replace(IVY_BRIDGE, **{field: value + 1}),
                   field) == value + 1


def test_missing_latency_class_rejected():
    partial = {LatencyClass.SINGLE: 1}
    with pytest.raises(PMUConfigError, match="missing latency"):
        dataclasses.replace(IVY_BRIDGE, latency_cycles=partial)


def test_all_uarches_order_matches_tables():
    # Tables list AMD first, then Westmere, then Ivy Bridge.
    assert [u.name for u in ALL_UARCHES] == [
        "magnycours", "westmere", "ivybridge"
    ]
