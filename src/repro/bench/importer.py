"""`repro-pmu bench import`: perfbench's output as a guarded bench document.

perfbench (``python3 perfbench/run.py``) is the one thing that measures
this program's speed.  The last line of its stdout is one JSON object::

    {"correct": true, "attempted": 12, "failed": 0,
     "metrics": {"cold_cells_per_s": {"value": 55.1, "unit": "cells/s"}}}

:func:`import_runs` reads that line from each captured run of one workload
and records the runs as one ``BENCH_<workload>.json``.  Each metric's
value is the median of the runs and its ``samples`` are the per-run
values, so ``bench compare`` can weigh a difference against the
baseline's spread.  Each metric's direction, and the metrics every run
must report, come from ``BENCHMARK.json``: its ``end_to_end`` section for
plain runs, its ``per_layer`` section for ``--trace 1`` runs.  A traced
import gets the area ``<workload>_layers``, so an end-to-end document is
never compared with a traced one.

Every metric carries three guards, and a tripped one makes the document
``invalid``:

* ``correct`` — every run printed ``"correct": true``;
* ``no_failed_ops`` — every run reported ``"failed": 0``;
* ``present`` — every run reported this metric.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Sequence

from repro.bench.guards import check_absent
from repro.bench.result import BenchResult, GuardCheck, Metric
from repro.errors import BenchError


def _read_run(path: str | Path) -> dict[str, Any]:
    """The result object on the last non-empty line of one perfbench
    stdout capture.  A capture that ends without one (perfbench crashed or
    was killed) reads as an incorrect run, so the guards trip."""
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except FileNotFoundError:
        raise BenchError(f"no such perfbench capture: {path}") from None
    last = next((line for line in reversed(lines) if line.strip()), "")
    try:
        run = json.loads(last)
    except json.JSONDecodeError:
        run = None
    if not isinstance(run, dict) or not isinstance(run.get("metrics"), dict):
        return {"correct": False, "attempted": None, "failed": None,
                "metrics": {}}
    return run


def _value(run: dict[str, Any], name: str) -> float | None:
    entry = run["metrics"].get(name)
    if not isinstance(entry, dict) or entry.get("value") is None:
        return None
    return float(entry["value"])


def import_runs(paths: Sequence[str | Path], workload: str,
                spec_path: str | Path = "BENCHMARK.json") -> BenchResult:
    """One guarded document from the perfbench captures at ``paths``,
    judged by the benchmark declaration at ``spec_path`` (default: the
    working directory's, i.e. run from the checkout root)."""
    if not paths:
        raise BenchError("bench import needs at least one perfbench capture")
    spec_path = Path(spec_path)
    if not spec_path.is_file():
        raise BenchError(f"no benchmark declaration at {spec_path} "
                         "(run bench import from the checkout root)")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    known = [entry["name"] for entry in spec["workloads"]]
    if workload not in known:
        raise BenchError(f"unknown workload {workload!r} "
                         f"(known: {', '.join(known)})")

    runs = [_read_run(path) for path in paths]
    layer_names = {entry["name"] for entry in spec["per_layer"]}
    traced = any(layer_names & run["metrics"].keys() for run in runs)
    correct = sum(run.get("correct") is True for run in runs)
    run_guards = (
        GuardCheck("correct", correct == len(runs),
                   f'{correct} of {len(runs)} runs printed "correct": true'),
        check_absent(sum(run.get("failed") != 0 for run in runs),
                     "runs with failed operations"),
    )
    metrics = []
    for entry in spec["per_layer" if traced else "end_to_end"]:
        values = [_value(run, entry["name"]) for run in runs]
        samples = tuple(value for value in values if value is not None)
        metrics.append(Metric(
            name=entry["name"],
            value=statistics.median(samples) if samples else None,
            unit=entry["unit"], direction=entry["better"], samples=samples,
            guards=run_guards + (GuardCheck(
                "present", len(samples) == len(runs),
                f"in {len(samples)} of {len(runs)} runs"),),
        ))
    return BenchResult(
        area=f"{workload}_layers" if traced else workload,
        kind="bench",
        config={"workload": workload, "traced": traced, "runs": len(runs)},
        metrics=tuple(metrics),
        details={"runs": [
            {"capture": str(path), "correct": run.get("correct"),
             "attempted": run.get("attempted"), "failed": run.get("failed")}
            for path, run in zip(paths, runs)
        ]},
        provenance={"source": "perfbench", "spec": str(spec_path)},
    )
