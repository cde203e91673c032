"""The overhead guard: with no collector installed, the instrumentation's
no-op fast path must cost well under 5% of a small ``run_method`` call.

The guard measures (a) the wall time of one uninstrumented-path run, (b)
how many spans and how many metric updates that run performs (observed
with a live collector), and (c) the per-operation cost of a disabled span
and of a disabled counter update, priced separately, and asserts
(b) x (c) < 5% of (a). This bounds the *instrumentation* overhead
directly instead of differencing two noisy end-to-end timings.

The machine's speed can drift between timings, so (a) and (c) are taken
in adjacent pairs and the guard judges the median pair: a pair measured
within one speed phase gives a speed-independent ratio.
"""

import time

from repro.core.runner import run_method
from repro.obs import collecting, count, enabled, span

#: Adjacent (run, per-operation) timing pairs the guard takes (odd, so
#: the middle pair is the median).
PAIRS = 15
#: Disabled operations per per-operation timing.
REPS = 2_000


def _best_of(n, fn):
    best = float("inf")
    for _ in range(n):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _disabled_spans():
    for _ in range(REPS):
        with span("guard", x=1):
            pass


def _disabled_counts():
    for _ in range(REPS):
        count("guard.ops")


def test_disabled_path_overhead_under_5_percent(branchy_execution):
    assert not enabled()

    def one_run():
        run_method(branchy_execution, "precise", base_period=40, rng=0)

    one_run()  # warm caches (trace properties, method resolution)

    # Count the obs operations a run performs, by kind.
    with collecting() as col:
        one_run()
        spans = len(col.spans)
        updates = col.metrics.updates
    assert spans > 0 and updates > 0

    assert not enabled()
    pairs = []
    for _ in range(PAIRS):
        run_wall = _best_of(3, one_run)
        per_span = _best_of(3, _disabled_spans) / REPS
        per_update = _best_of(3, _disabled_counts) / REPS
        overhead = spans * per_span + updates * per_update
        pairs.append((overhead / run_wall, overhead, run_wall, per_span,
                      per_update))
    ratio, overhead, run_wall, per_span, per_update = sorted(pairs)[PAIRS // 2]
    assert ratio < 0.05, (
        f"disabled-path overhead {overhead * 1e6:.2f}us "
        f"({spans} spans x {per_span * 1e9:.0f}ns + {updates} updates x "
        f"{per_update * 1e9:.0f}ns) exceeds 5% of run_method wall "
        f"{run_wall * 1e6:.1f}us (median of {PAIRS} pairs)"
    )
