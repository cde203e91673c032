"""The fast sampler's retirement index against the per-instruction arrays.

:class:`~repro.pmu.fastpath.RetireIndex` answers the reference sampler's
two retirement queries (and the uop threshold query) without building the
per-instruction arrays; here every answer is checked against those arrays
on all three machines.  Magny-Cours retires three wide, so no power-of-two
shortcut can hide there.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import ALL_UARCHES, Machine
from repro.pmu.fastpath import RetireIndex
from tests.integration.test_pipeline_properties import programs_with_calls


def _assert_index_exact(execution):
    index = RetireIndex(execution)
    cycles = execution.retire_cycles
    np.testing.assert_array_equal(index.at(np.arange(cycles.size)), cycles)
    # The last retirement of every occurrence, one below and one above
    # it, the first cycle and past the end.
    last = cycles[execution.trace.occurrence_ends]
    probes = np.concatenate([last - 1, last, last + 1,
                             [0, cycles[-1] + 1, cycles[-1] + 1000]])
    for side in ("left", "right"):
        np.testing.assert_array_equal(
            index.search(probes, side),
            np.searchsorted(cycles, probes, side), err_msg=side)
    uops = execution.trace.cumulative_uops
    thresholds = np.concatenate([uops - 1, uops, uops + 1, [1]])
    np.testing.assert_array_equal(
        index.uop_search(thresholds),
        np.searchsorted(uops, thresholds, "left"))


@given(programs_with_calls(), st.sampled_from(ALL_UARCHES))
@settings(max_examples=30, deadline=None)
def test_retire_index_matches_retire_cycles(program, uarch):
    _assert_index_exact(Machine(uarch).execute(program))


def test_retire_index_on_campaign_workloads(campaign_traces):
    for trace in campaign_traces.values():
        for uarch in ALL_UARCHES:
            _assert_index_exact(Machine(uarch).attach(trace))
