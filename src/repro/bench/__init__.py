"""Trustworthy self-benchmarking: importer, load generator, regression gate.

The package applies the paper's own discipline — numbers are only as good
as the validated substrate that produced them — to the reproduction's
performance.  It measures nothing itself except the served path under
``hammer``: ``perfbench/`` is the one benchmark, and this package records
and gates its output.

* :mod:`repro.bench.importer` — ``repro-pmu bench import``: perfbench runs
  of one workload as one guarded document (median value, per-run
  samples, a guard for correctness, failed operations and every metric).
* :mod:`repro.bench.hammer` — ``repro-pmu hammer``: a QPS load generator
  for the serve daemon where errors are first-class outcomes and client
  tallies are cross-checked against the daemon's ``/metrics``.
* :mod:`repro.bench.result` — the versioned ``BENCH_<area>.json`` document
  that imports and ``hammer`` write (guards attached to every metric).
* :mod:`repro.bench.compare` — ``repro-pmu bench compare``: the
  direction- and spread-aware regression gate CI runs on those documents.
"""

from repro.bench.compare import (
    DEFAULT_MAX_REGRESSION_PCT,
    CompareResult,
    MetricDelta,
    compare_bench,
)
from repro.bench.guards import (
    DEFAULT_MIN_ELAPSED_S,
    check_absent,
    check_alive,
    check_counts_match,
    check_min_elapsed,
    check_nonzero_work,
)
from repro.bench.hammer import run_hammer
from repro.bench.importer import import_runs
from repro.bench.result import (
    BENCH_SCHEMA_VERSION,
    BenchResult,
    GuardCheck,
    Metric,
    bench_filename,
    capture_environment,
    load_bench,
    save_bench,
)

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "DEFAULT_MAX_REGRESSION_PCT",
    "DEFAULT_MIN_ELAPSED_S",
    "BenchResult",
    "CompareResult",
    "GuardCheck",
    "Metric",
    "MetricDelta",
    "bench_filename",
    "capture_environment",
    "check_absent",
    "check_alive",
    "check_counts_match",
    "check_min_elapsed",
    "check_nonzero_work",
    "compare_bench",
    "import_runs",
    "load_bench",
    "run_hammer",
    "save_bench",
]
