"""The ablation sweep API, and the E10 root-cause stories it tells."""

import pytest

from repro import IVY_BRIDGE, Machine
from repro.core.ablation import sweep_period, sweep_uarch_parameter
from repro.core.experiment import ExperimentConfig, Harness
from repro.pmu.periods import next_prime
from repro.workloads.registry import get_workload


@pytest.fixture(scope="module")
def small_trace():
    program = get_workload("g4box").build(scale=0.05)
    return Machine(IVY_BRIDGE).execute(program).trace


def test_uarch_sweep_structure(small_trace):
    sweep = sweep_uarch_parameter(
        small_trace, IVY_BRIDGE, "pmi_skid_cycles", (0, 16),
        method="classic", base_period=200, seeds=range(2),
    )
    assert sweep.parameter == "pmi_skid_cycles"
    assert sweep.method == "classic"
    assert sweep.values() == [0, 16]
    assert len(sweep.errors()) == 2
    assert all(e >= 0 for e in sweep.errors())


def test_uarch_sweep_zero_value_differs(small_trace):
    sweep = sweep_uarch_parameter(
        small_trace, IVY_BRIDGE, "pmi_skid_cycles", (0, 64),
        method="classic", base_period=200, seeds=range(2),
    )
    errors = sweep.errors()
    assert errors[0] != errors[1]


def test_period_sweep(small_trace):
    sweep = sweep_period(
        small_trace, IVY_BRIDGE, (101, 211), method="precise",
        seeds=range(2),
    )
    assert sweep.parameter == "base_period"
    assert sweep.values() == [101, 211]


def test_render_contains_values(small_trace):
    sweep = sweep_uarch_parameter(
        small_trace, IVY_BRIDGE, "lbr_depth", (4, 16),
        method="lbr", base_period=200, seeds=range(2),
    )
    text = sweep.render()
    assert "lbr_depth=" in text
    assert "error=" in text


def test_invalid_parameter_raises(small_trace):
    with pytest.raises(TypeError):
        sweep_uarch_parameter(
            small_trace, IVY_BRIDGE, "warp_factor", (1,),
            method="classic", base_period=200,
        )


# -- E10: each swept mechanism moves the error the way Section 3.1 says ----


@pytest.fixture(scope="module")
def e10_harness():
    return Harness(ExperimentConfig(scale=0.25, repeats=3))


def _uarch_errors(harness, workload, parameter, values, method):
    return sweep_uarch_parameter(
        harness.trace(workload), IVY_BRIDGE, parameter, values=values,
        method=method, base_period=400,
    ).errors()


def test_more_skid_makes_classic_worse(e10_harness):
    errors = _uarch_errors(e10_harness, "g4box", "pmi_skid_cycles",
                           (0, 4, 8, 16, 32, 64), "classic")
    assert errors[-1] > errors[0]


def test_every_round_period_resonates_worse_than_every_prime(e10_harness):
    resonant = (200, 400, 1000, 2000)   # multiples of the 200-instr loop
    primes = tuple(next_prime(p) for p in resonant)
    errors = sweep_period(e10_harness.trace("callchain"), IVY_BRIDGE,
                          resonant + primes, method="precise").errors()
    assert min(errors[:len(resonant)]) > max(errors[len(resonant):])


def test_deeper_lbr_averages_better(e10_harness):
    errors = _uarch_errors(e10_harness, "g4box", "lbr_depth",
                           (2, 4, 8, 16, 32), "lbr")
    # Depth 16 beats depth 2, and a depth-32 LBR (the Section 6.2
    # hardware discussion) does not lose that gain.
    assert errors[3] < errors[0]
    assert errors[4] < errors[0]


def test_wider_pebs_arming_window_hurts_latency_biased(e10_harness):
    # The arming window is the PEBS shadow that PDIR removes.
    errors = _uarch_errors(e10_harness, "latency_biased",
                           "pebs_arming_cycles", (0, 1, 2, 4, 8),
                           "precise_prime")
    assert errors[-1] > errors[0]


def test_mispredict_bubbles_park_classic_samples(e10_harness):
    errors = _uarch_errors(e10_harness, "g4box",
                           "mispredict_penalty_cycles", (0, 7, 14, 28),
                           "classic")
    assert errors[-1] > errors[0]


def test_jitter_never_resynchronizes_classic(e10_harness):
    # Jitter reshuffles delivery by a few cycles; classic stays badly
    # synchronized on the call chain at every setting.
    errors = _uarch_errors(e10_harness, "callchain", "pmi_jitter_cycles",
                           (0, 2, 6, 12, 24), "classic")
    assert min(errors) > 0.5
