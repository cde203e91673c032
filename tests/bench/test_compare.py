"""bench compare: direction-aware gating and its trust rules."""

import statistics

import pytest

from repro.bench.compare import compare_bench
from repro.bench.result import BenchResult, GuardCheck, Metric
from repro.errors import BenchError


def _result(area="table1", kind="bench", error=None, **metrics):
    """BenchResult with throughput-style metrics unless name says latency."""
    built = []
    for name, value in metrics.items():
        direction = "lower" if "latency" in name or "error" in name \
            else "higher"
        built.append(Metric(name=name, value=value, unit="u",
                            direction=direction))
    return BenchResult(area=area, kind=kind, metrics=tuple(built),
                       error=error)


def test_within_threshold_passes():
    comparison = compare_bench(_result(cells_per_s=100.0),
                               _result(cells_per_s=95.0),
                               max_regression_pct=10.0)
    assert comparison.passed
    assert comparison.regressions == ()
    assert "PASS" in comparison.render()


def test_higher_is_better_regression_trips_gate():
    comparison = compare_bench(_result(cells_per_s=100.0),
                               _result(cells_per_s=70.0),
                               max_regression_pct=20.0)
    assert not comparison.passed
    delta = comparison.regressions[0]
    assert delta.name == "cells_per_s"
    assert delta.change_pct == pytest.approx(-30.0)
    assert "REGRESSION" in comparison.render()


def test_lower_is_better_regression_is_a_rise():
    # Latency going UP is the regression; going down is an improvement.
    worse = compare_bench(_result(latency_p95_s=0.10),
                          _result(latency_p95_s=0.15),
                          max_regression_pct=20.0)
    assert not worse.passed
    assert worse.regressions[0].change_pct == pytest.approx(-50.0)
    better = compare_bench(_result(latency_p95_s=0.10),
                           _result(latency_p95_s=0.05),
                           max_regression_pct=20.0)
    assert better.passed


def test_improvements_never_trip_the_gate():
    comparison = compare_bench(_result(cells_per_s=100.0),
                               _result(cells_per_s=500.0),
                               max_regression_pct=0.0)
    assert comparison.passed


def test_invalid_candidate_fails_outright():
    candidate = BenchResult(
        area="table1", kind="bench",
        metrics=(Metric(name="cells_per_s", value=999.0, unit="u",
                        guards=(GuardCheck("min_elapsed", False, "x"),)),),
    )
    comparison = compare_bench(_result(cells_per_s=100.0), candidate)
    assert not comparison.passed
    assert any("candidate is invalid" in p for p in comparison.problems)


def test_failed_baseline_cannot_gate_anything():
    baseline = _result(cells_per_s=100.0, error="daemon died")
    comparison = compare_bench(baseline, _result(cells_per_s=100.0))
    assert not comparison.passed
    assert any("baseline is failed" in p for p in comparison.problems)


def test_metric_missing_from_candidate_fails():
    comparison = compare_bench(
        _result(cells_per_s=100.0, instructions_per_s=5e6),
        _result(cells_per_s=100.0),
    )
    assert not comparison.passed
    assert any("missing from candidate" in p for p in comparison.problems)
    missing = [d for d in comparison.deltas if d.name == "instructions_per_s"]
    assert missing[0].regressed


def test_new_candidate_only_metric_is_reported_not_fatal():
    comparison = compare_bench(_result(cells_per_s=100.0),
                               _result(cells_per_s=100.0, extra=1.0))
    assert comparison.passed
    new = [d for d in comparison.deltas if d.name == "extra"]
    assert new and not new[0].regressed and "no baseline" in new[0].note


def test_area_mismatch_and_bad_threshold_raise():
    with pytest.raises(BenchError, match="different areas"):
        compare_bench(_result(area="table1"), _result(area="serve"))
    with pytest.raises(BenchError, match="max_regression_pct"):
        compare_bench(_result(), _result(), max_regression_pct=-1)


def test_worse_value_from_a_zero_baseline_regresses():
    # A hammer document where half the requests failed and none had.
    worse = compare_bench(_result(area="serve", kind="hammer", error_rate=0.0),
                          _result(area="serve", kind="hammer", error_rate=0.5),
                          max_regression_pct=20.0)
    assert not worse.passed
    delta = worse.regressions[0]
    assert delta.change_pct is None
    assert "0 -> 0.5 u  (from zero)  REGRESSION" in delta.render()
    # Away from zero in the better direction, or staying at zero, passes.
    assert compare_bench(_result(cells_per_s=0.0),
                         _result(cells_per_s=5.0)).passed
    same = compare_bench(_result(error_rate=0.0), _result(error_rate=0.0))
    assert same.passed and same.deltas[0].change_pct == 0.0


def _sampled(*samples):
    """A throughput metric the way ``bench import`` records it."""
    return BenchResult(area="tables", kind="bench", metrics=(
        Metric(name="cold_cells_per_s", value=statistics.median(samples),
               unit="cells/s", samples=samples),))


def test_spread_rule_spares_a_move_inside_the_baseline_iqr():
    # The median falls 100 -> 70, past the 25% threshold, but the
    # baseline's own runs spread over an IQR of 80 (60..140).
    comparison = compare_bench(_sampled(50.0, 60.0, 100.0, 140.0, 150.0),
                               _sampled(65.0, 68.0, 70.0, 72.0, 75.0),
                               max_regression_pct=25.0)
    assert comparison.passed
    assert comparison.deltas[0].change_pct == pytest.approx(-30.0)
    assert "within baseline IQR 80" in comparison.render()


def test_spread_rule_fails_a_move_past_threshold_and_iqr():
    comparison = compare_bench(_sampled(96.0, 99.0, 100.0, 101.0, 104.0),
                               _sampled(65.0, 68.0, 70.0, 72.0, 75.0),
                               max_regression_pct=25.0)
    assert not comparison.passed
    assert comparison.regressions[0].name == "cold_cells_per_s"


def test_spread_rule_needs_three_samples_on_each_side():
    # Two wide baseline samples say nothing about spread: the threshold
    # alone judges.
    comparison = compare_bench(_sampled(50.0, 150.0),
                               _sampled(65.0, 70.0, 75.0),
                               max_regression_pct=25.0)
    assert not comparison.passed
