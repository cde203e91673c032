"""Aggregation over raw campaign cells: bootstrap CIs and curves.

Raw campaign output is per-cell ``AccuracyStats`` (one ``err(x)`` per
seed).  This module condenses them into the three views the paper's §4–§5
discussion calls for but never plots:

* **method × period summaries** — mean ``err(x)`` pooled over workloads,
  machines, and seeds, with a bootstrap confidence interval,
* **period-sensitivity curves** — err vs base period, per method,
* **seed-convergence curves** — error spread vs number of seeded repeats,
  per method (how many runs buy a stable mean).

Bootstrap resampling uses a seeded generator, so aggregates are a pure
function of the cell data: re-rendering a report from the same campaign
reproduces it byte for byte.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sweep.engine import CampaignResult

#: Bootstrap resamples per interval; seeded, so cost is the only tradeoff.
BOOTSTRAP_RESAMPLES = 2000

#: Seed of the bootstrap generator (fixed: aggregates must be deterministic).
BOOTSTRAP_SEED = 20150708

#: Bytes of memoized bootstrap index matrices kept (least recently used
#: out first); see :func:`_resample_indices`.
INDEX_MEMO_BYTES = 8 << 20

_index_memo: "OrderedDict[tuple[int, int, int], np.ndarray]" = OrderedDict()
_index_memo_lock = threading.Lock()


def _resample_indices(n: int, resamples: int, seed: int) -> np.ndarray:
    """The ``(resamples, n)`` bootstrap index matrix of ``seed``.

    Every interval over ``n`` values draws the same matrix, so it is drawn
    once per ``(n, resamples, seed)`` and shared read-only, stored in the
    narrowest unsigned type that holds ``n - 1``.
    """
    key = (n, resamples, seed)
    with _index_memo_lock:
        idx = _index_memo.get(key)
        if idx is not None:
            _index_memo.move_to_end(key)
            return idx
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n, size=(resamples, n)).astype(
        np.min_scalar_type(n - 1))
    idx.flags.writeable = False
    with _index_memo_lock:
        _index_memo[key] = idx
        held = sum(matrix.nbytes for matrix in _index_memo.values())
        while held > INDEX_MEMO_BYTES and len(_index_memo) > 1:
            _, dropped = _index_memo.popitem(last=False)
            held -= dropped.nbytes
    return idx


@dataclass(frozen=True)
class BootstrapCI:
    """A bootstrap percentile confidence interval on a mean."""

    mean: float
    lo: float
    hi: float
    confidence: float
    samples: int

    @property
    def half_width(self) -> float:
        return (self.hi - self.lo) / 2.0

    def __str__(self) -> str:
        return f"{self.mean:.4f} [{self.lo:.4f}, {self.hi:.4f}]"


def bootstrap_ci(
    values: Iterable[float],
    confidence: float = 0.95,
    resamples: int = BOOTSTRAP_RESAMPLES,
    seed: int = BOOTSTRAP_SEED,
) -> BootstrapCI:
    """Percentile-bootstrap CI on the mean of ``values``.

    Deterministic for fixed inputs (seeded generator).  A single value
    yields a degenerate interval at that value.
    """
    data = np.asarray(list(values), dtype=np.float64)
    if data.size == 0:
        raise ValueError("bootstrap of no values")
    mean = float(np.mean(data))
    if data.size == 1:
        return BootstrapCI(mean=mean, lo=mean, hi=mean,
                           confidence=confidence, samples=1)
    idx = _resample_indices(int(data.size), resamples, seed)
    means = data[idx].mean(axis=1)
    alpha = (1.0 - confidence) / 2.0
    lo, hi = np.quantile(means, (alpha, 1.0 - alpha))
    return BootstrapCI(mean=mean, lo=float(lo), hi=float(hi),
                       confidence=confidence, samples=int(data.size))


@dataclass(frozen=True)
class SummaryRow:
    """Pooled accuracy of one (method, period) pair."""

    method: str
    period: int
    ci: BootstrapCI
    cells: int          # evaluable cells pooled (blanks excluded)


@dataclass(frozen=True)
class CurvePoint:
    """One x position of a per-method curve."""

    x: int              # period, or repeat count
    ci: BootstrapCI


def _pooled_errors(
    result: "CampaignResult", repeats: int
) -> dict[tuple[str, int], tuple[list[float], int]]:
    """(method, period) -> (pooled per-seed errors, evaluable cell count)."""
    pooled: dict[tuple[str, int], tuple[list[float], int]] = {}
    for point, stats in result.cells.items():
        if point.repeats != repeats or stats is None:
            continue
        key = (point.cell.method, int(point.cell.period))
        errors, cells = pooled.setdefault(key, ([], 0))
        errors.extend(stats.errors)
        pooled[key] = (errors, cells + 1)
    return pooled


def summarize(result: "CampaignResult") -> list[SummaryRow]:
    """Method × period summary at the campaign's deepest seed count.

    Rows follow the spec's method order, then ascending period.  NaN
    errors (degenerate cells) are excluded from pooling; all-NaN pools
    are dropped.
    """
    repeats = result.spec.max_repeats
    pooled = _pooled_errors(result, repeats)
    method_order = {m: i for i, m in enumerate(result.spec.methods)}
    rows: list[SummaryRow] = []
    for (method, period), (errors, cells) in sorted(
        pooled.items(), key=lambda kv: (method_order[kv[0][0]], kv[0][1])
    ):
        finite = [e for e in errors if np.isfinite(e)]
        if not finite:
            continue
        rows.append(SummaryRow(method=method, period=period,
                               ci=bootstrap_ci(finite), cells=cells))
    return rows


@dataclass(frozen=True)
class FidelityRow:
    """Pooled consumer fidelity of one (method, period) pair.

    Scores pool per-seed values over workloads and machines at the
    campaign's deepest seed count, same shape as :class:`SummaryRow`.
    ``convergence`` is the CI over converged repeats' sample counts
    (``None`` when no repeat converged); ``converged``/``repeats`` give
    the convergence rate.
    """

    method: str
    period: int
    jaccard: BootstrapCI
    rank: BootstrapCI
    inline: BootstrapCI
    layout: BootstrapCI
    convergence: BootstrapCI | None
    converged: int
    repeats: int
    cells: int


def fidelity_summary(result: "CampaignResult") -> list[FidelityRow]:
    """Method × period fidelity summary at the deepest seed count.

    Rows follow the spec's method order, then ascending period; cells
    without fidelity scores (blank cells, plain campaigns) contribute
    nothing, so a plain campaign yields an empty list.
    """
    repeats = result.spec.max_repeats
    pooled: dict[tuple[str, int], dict[str, list]] = {}
    for point, fid in result.fidelity.items():
        if point.repeats != repeats or fid is None:
            continue
        key = (point.cell.method, int(point.cell.period))
        pool = pooled.setdefault(
            key,
            {"jaccard": [], "rank": [], "inline": [], "layout": [],
             "convergence": [], "converged": [0], "repeats": [0],
             "cells": [0]},
        )
        pool["jaccard"].extend(fid.jaccard)
        pool["rank"].extend(fid.rank)
        pool["inline"].extend(fid.inline)
        pool["layout"].extend(fid.layout)
        pool["convergence"].extend(fid.converged_samples())
        pool["converged"][0] += fid.converged_repeats
        pool["repeats"][0] += fid.repeats
        pool["cells"][0] += 1
    method_order = {m: i for i, m in enumerate(result.spec.methods)}
    rows: list[FidelityRow] = []
    for (method, period), pool in sorted(
        pooled.items(), key=lambda kv: (method_order[kv[0][0]], kv[0][1])
    ):
        rows.append(FidelityRow(
            method=method,
            period=period,
            jaccard=bootstrap_ci(pool["jaccard"]),
            rank=bootstrap_ci(pool["rank"]),
            inline=bootstrap_ci(pool["inline"]),
            layout=bootstrap_ci(pool["layout"]),
            convergence=(
                bootstrap_ci(pool["convergence"])
                if pool["convergence"] else None
            ),
            converged=pool["converged"][0],
            repeats=pool["repeats"][0],
            cells=pool["cells"][0],
        ))
    return rows


def period_sensitivity(result: "CampaignResult") -> dict[str, list[CurvePoint]]:
    """Per-method err-vs-period curves at the deepest seed count."""
    curves: dict[str, list[CurvePoint]] = {}
    for row in summarize(result):
        curves.setdefault(row.method, []).append(
            CurvePoint(x=row.period, ci=row.ci)
        )
    return curves


def seed_convergence(result: "CampaignResult") -> dict[str, list[CurvePoint]]:
    """Per-method error-spread-vs-repeats curves, pooled over all periods.

    The interesting quantity is how the *uncertainty* of the pooled mean
    shrinks as seeds are added: each point carries the bootstrap CI of the
    pooled mean at that repeat count — its width is the convergence metric.
    """
    curves: dict[str, list[CurvePoint]] = {}
    for repeats in sorted(result.spec.seed_counts):
        by_method: dict[str, list[float]] = {}
        for point, stats in result.cells.items():
            if point.repeats != repeats or stats is None:
                continue
            by_method.setdefault(point.cell.method, []).extend(
                e for e in stats.errors if np.isfinite(e)
            )
        for method in result.spec.methods:
            errors = by_method.get(method)
            if not errors:
                continue
            curves.setdefault(method, []).append(
                CurvePoint(x=repeats, ci=bootstrap_ci(errors))
            )
    return curves
