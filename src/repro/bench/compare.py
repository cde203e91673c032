"""`repro-pmu bench compare`: the perf-regression gate.

Diffs two ``BENCH_<area>.json`` documents (a baseline and a candidate
trajectory point) metric by metric and exits nonzero when the candidate
regresses past a threshold.  Trust rules, in order:

* Area mismatch is a usage error (:class:`~repro.errors.BenchError`) — a
  ``table1`` baseline says nothing about a ``serve`` candidate.
* An ``invalid``/``failed`` candidate **fails the gate outright**: numbers
  whose guards tripped are forensic artifacts, not evidence.  Same for an
  untrustworthy baseline — you cannot regress against a lie.
* A metric present in the baseline but missing (or value-less) in the
  candidate fails: silently losing a metric is how regressions hide.
* Direction-aware deltas: ``higher``-is-better metrics regress when the
  candidate drops by more than ``max_regression_pct``; ``lower``-is-better
  (latencies, error rates) when it *rises* past the threshold.  A worse
  value from a zero baseline always regresses (no percentage describes
  it; it renders as "from zero").  Improvements and new candidate-only
  metrics are reported, never fatal.
* Spread: when both sides carry at least :data:`MIN_SPREAD_SAMPLES`
  per-run samples (imported perfbench runs), a metric regresses only if
  it is *also* worse by more than the baseline samples' interquartile
  range, so run-to-run noise on the runner cannot fail the gate.
  Documents without samples (``hammer``'s) are judged by the threshold
  alone.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from repro.bench.result import STATUS_OK, BenchResult, Metric
from repro.errors import BenchError

#: Default allowed regression before the gate trips, in percent.
DEFAULT_MAX_REGRESSION_PCT = 20.0

#: Per-run samples each side needs before the spread rule applies.
MIN_SPREAD_SAMPLES = 3


@dataclass(frozen=True)
class MetricDelta:
    """One metric's baseline→candidate movement."""

    name: str
    unit: str
    direction: str
    baseline: float | None
    candidate: float | None
    change_pct: float | None            # signed, in the metric's direction
    regressed: bool
    note: str = ""

    def render(self) -> str:
        def fmt(value: float | None) -> str:
            return "--" if value is None else f"{value:,.4g}"

        arrow = f"{fmt(self.baseline)} -> {fmt(self.candidate)} {self.unit}"
        if self.change_pct is not None:
            change = f"  ({self.change_pct:+.1f}%)"
        elif self.baseline == 0 and self.candidate is not None:
            change = "  (from zero)"
        else:
            change = ""
        verdict = "  REGRESSION" if self.regressed else ""
        note = f"  [{self.note}]" if self.note else ""
        return f"  {self.name:<24} {arrow}{change}{verdict}{note}"


@dataclass(frozen=True)
class CompareResult:
    """The gate's verdict over a whole document pair."""

    area: str
    max_regression_pct: float
    deltas: tuple[MetricDelta, ...]
    problems: tuple[str, ...] = ()       # trust failures, missing metrics

    @property
    def regressions(self) -> tuple[MetricDelta, ...]:
        return tuple(d for d in self.deltas if d.regressed)

    @property
    def passed(self) -> bool:
        return not self.regressions and not self.problems

    def render(self) -> str:
        lines = [
            f"BENCH COMPARE {self.area} "
            f"(max regression {self.max_regression_pct:g}%): "
            f"{'PASS' if self.passed else 'FAIL'}"
        ]
        for problem in self.problems:
            lines.append(f"  problem: {problem}")
        lines.extend(delta.render() for delta in self.deltas)
        return "\n".join(lines)


def _signed_change_pct(baseline: float, candidate: float,
                       direction: str) -> float | None:
    """Percent change where negative always means 'got worse'; ``None``
    for a move away from zero, which no percentage describes."""
    if baseline == 0:
        return 0.0 if candidate == 0 else None
    raw = (candidate - baseline) / abs(baseline) * 100.0
    return raw if direction == "higher" else -raw


def _baseline_spread(base_metric: Metric,
                     cand_metric: Metric) -> float | None:
    """The baseline samples' interquartile range, or ``None`` unless both
    sides carry enough samples for the spread rule."""
    if min(len(base_metric.samples),
           len(cand_metric.samples)) < MIN_SPREAD_SAMPLES:
        return None
    q1, _, q3 = statistics.quantiles(base_metric.samples, n=4,
                                     method="inclusive")
    return q3 - q1


def compare_bench(
    baseline: BenchResult,
    candidate: BenchResult,
    *,
    max_regression_pct: float = DEFAULT_MAX_REGRESSION_PCT,
) -> CompareResult:
    """Gate ``candidate`` against ``baseline``; never raises for perf —
    only for unusable inputs (area mismatch, negative threshold)."""
    if max_regression_pct < 0:
        raise BenchError("max_regression_pct must be >= 0")
    if baseline.area != candidate.area:
        raise BenchError(
            f"cannot compare different areas: baseline is "
            f"{baseline.area!r}, candidate is {candidate.area!r}"
        )

    problems: list[str] = []
    if baseline.status != STATUS_OK:
        problems.append(
            f"baseline is {baseline.status}"
            + (f": {baseline.error}" if baseline.error else "")
            + " — cannot regress against an untrusted baseline"
        )
    if candidate.status != STATUS_OK:
        problems.append(
            f"candidate is {candidate.status}"
            + (f": {candidate.error}" if candidate.error else "")
            + " — guard-tripped numbers are not evidence"
        )

    deltas: list[MetricDelta] = []
    for base_metric in baseline.metrics:
        cand_metric = candidate.metric(base_metric.name)
        deltas.append(_delta(base_metric, cand_metric, max_regression_pct,
                             problems))
    for cand_metric in candidate.metrics:
        if baseline.metric(cand_metric.name) is None:
            deltas.append(MetricDelta(
                name=cand_metric.name, unit=cand_metric.unit,
                direction=cand_metric.direction, baseline=None,
                candidate=cand_metric.value, change_pct=None,
                regressed=False, note="new metric (no baseline)",
            ))
    return CompareResult(
        area=baseline.area,
        max_regression_pct=max_regression_pct,
        deltas=tuple(deltas),
        problems=tuple(problems),
    )


def _delta(base_metric: Metric, cand_metric: Metric | None,
           max_regression_pct: float,
           problems: list[str]) -> MetricDelta:
    name = base_metric.name
    if cand_metric is None or cand_metric.value is None:
        problems.append(
            f"metric {name!r} present in baseline but "
            + ("missing from candidate" if cand_metric is None
               else "value-less in candidate")
        )
        return MetricDelta(
            name=name, unit=base_metric.unit,
            direction=base_metric.direction, baseline=base_metric.value,
            candidate=None, change_pct=None, regressed=True,
            note="missing in candidate",
        )
    if base_metric.value is None:
        return MetricDelta(
            name=name, unit=base_metric.unit,
            direction=base_metric.direction, baseline=None,
            candidate=cand_metric.value, change_pct=None, regressed=False,
            note="baseline value-less",
        )
    base, cand = base_metric.value, cand_metric.value
    change = _signed_change_pct(base, cand, base_metric.direction)
    worse_by = (base - cand if base_metric.direction == "higher"
                else cand - base)
    regressed = (worse_by > 0 if change is None
                 else change < -max_regression_pct)
    note = ""
    spread = _baseline_spread(base_metric, cand_metric)
    if regressed and spread is not None and worse_by <= spread:
        regressed = False
        note = f"within baseline IQR {spread:,.4g}"
    return MetricDelta(
        name=name, unit=base_metric.unit, direction=base_metric.direction,
        baseline=base, candidate=cand, change_pct=change,
        regressed=regressed, note=note,
    )
