"""Unit tests for the experiment harness (caching, cell evaluation)."""

import numpy as np
import pytest

from repro.cpu.machine import Machine
from repro.obs import collecting
from repro.cpu.uarch import ALL_UARCHES
from repro.core.experiment import (
    CellSpec,
    DEFAULT_MACHINES,
    ExperimentConfig,
    Harness,
)
from repro.workloads.registry import get_workload


@pytest.fixture(scope="module")
def harness():
    return Harness(ExperimentConfig(scale=0.01, repeats=2))


def test_default_machines_order():
    assert DEFAULT_MACHINES == ("magnycours", "westmere", "ivybridge")


def test_trace_cached(harness):
    t1 = harness.trace("latency_biased")
    t2 = harness.trace("latency_biased")
    assert t1 is t2


def test_executions_share_trace(harness):
    a = harness.execution("westmere", "latency_biased")
    b = harness.execution("ivybridge", "latency_biased")
    assert a.trace is b.trace
    assert a.uarch.name == "westmere"


def test_reference_cached_and_consistent(harness):
    ref = harness.reference("latency_biased")
    assert ref is harness.reference("latency_biased")
    assert ref.net_instruction_count \
        == harness.trace("latency_biased").num_instructions


def test_cell_returns_stats(harness):
    stats = harness.cell("ivybridge", "latency_biased", "precise")
    assert stats is not None
    assert stats.repeats == 2
    # Cached: same object on second call.
    assert harness.cell("ivybridge", "latency_biased", "precise") is stats


def test_unavailable_cell_is_none(harness):
    assert harness.cell("magnycours", "latency_biased", "lbr") is None
    assert harness.cell("westmere", "latency_biased", "pdir_fix") is None


def test_period_for_uses_workload_default(harness):
    assert harness.period_for("latency_biased") == 2000
    assert harness.period_for("mcf") == 500


def test_config_seeds(harness):
    assert list(harness.config.seeds) == [100, 101]


def test_trace_is_uarch_neutral(harness):
    """The harness builds a trace with no machine; every uarch observes the
    identical dynamic block sequence (DESIGN.md: machines differ only in
    timing and PMU features)."""
    neutral = harness.trace("latency_biased")
    program = get_workload("latency_biased").build(scale=0.01)
    for uarch in ALL_UARCHES:
        executed = Machine(uarch).execute(program).trace
        np.testing.assert_array_equal(executed.block_seq, neutral.block_seq)


def test_harness_trace_independent_of_machine_order():
    forward = Harness(ExperimentConfig(scale=0.01, machines=DEFAULT_MACHINES))
    reverse = Harness(ExperimentConfig(
        scale=0.01, machines=tuple(reversed(DEFAULT_MACHINES))
    ))
    np.testing.assert_array_equal(
        forward.trace("latency_biased").block_seq,
        reverse.trace("latency_biased").block_seq,
    )


def test_evaluate_cell_accepts_specs_and_matches_cell(harness):
    spec = CellSpec("ivybridge", "latency_biased", "precise")
    scores = harness.evaluate_cell(spec)
    assert scores.fidelity is None
    assert scores.stats is harness.cell("ivybridge", "latency_biased",
                                        "precise")
    # The resolved-period spec is the canonical in-process cache key.
    assert CellSpec("ivybridge", "latency_biased", "precise", 2000) \
        in harness._cells


def test_adopted_trace_is_used_without_interpreting(harness):
    built = harness.trace("callchain")
    fresh = Harness(harness.config)
    fresh.adopt_trace("callchain", built.block_seq.copy())
    with collecting() as col:
        adopted = fresh.trace("callchain")
    assert "interpret" not in col.span_names()
    np.testing.assert_array_equal(adopted.block_seq, built.block_seq)
    assert fresh.held_trace("callchain") is adopted


@pytest.mark.parametrize("bad", [
    np.array([], dtype=np.int32),
    np.array([0, 1, 10**6], dtype=np.int32),
    np.array([0, -1, 2], dtype=np.int32),
    np.zeros((2, 3), dtype=np.int32),
], ids=["empty", "past-the-blocks", "negative", "two-d"])
def test_adopted_trace_failing_the_shape_guard_is_ignored(harness, bad):
    fresh = Harness(harness.config)
    fresh.adopt_trace("callchain", bad)
    assert fresh.held_trace("callchain") is None
    np.testing.assert_array_equal(fresh.trace("callchain").block_seq,
                                  harness.trace("callchain").block_seq)
