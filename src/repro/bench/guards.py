"""Sanity guards: the checks that let a benchmark refuse to lie.

SNIPPETS.md's ctlog-benchmarks post-mortem catalogues how naive pipelines
fabricate numbers — near-zero-elapsed QPS artifacts, crashed load
generators reported as throughput, silently empty work sets.  Each guard
here targets one of those failure modes and returns a
:class:`~repro.bench.result.GuardCheck` that travels with the metric it
vouches for; a failed guard makes the metric ``invalid`` (the number is
kept for forensics but nothing downstream may trust it).

* :func:`check_min_elapsed` — a rate computed over a sub-threshold window
  is dominated by timer quantization and setup cost, not the workload.
* :func:`check_nonzero_work` — zero-work detection: the obs counters (or
  completed-request tallies) must prove the measured code actually ran.
* :func:`check_absent` — the inverse: what must not happen (a failed
  operation in a benchmark run) must have a count of exactly 0.
* :func:`check_counts_match` — a load generator's client-side tally must
  reconcile with the daemon's own ``/metrics`` deltas.
* :func:`check_alive` — a dead server can never appear as a throughput
  number.
"""

from __future__ import annotations

from repro.bench.result import GuardCheck

#: Below this measured window, rates are considered timer noise.  A
#: healthy load window lasts seconds and clears this easily; a
#: misconfigured one (zero duration, a daemon that answers nothing) does
#: not.
DEFAULT_MIN_ELAPSED_S = 0.05


def check_min_elapsed(elapsed_s: float,
                      minimum_s: float = DEFAULT_MIN_ELAPSED_S,
                      name: str = "min_elapsed") -> GuardCheck:
    """The measured window must be long enough to mean anything."""
    return GuardCheck(
        name=name,
        passed=elapsed_s >= minimum_s,
        detail=f"measured {elapsed_s:.6f}s vs minimum {minimum_s:g}s",
    )


def check_nonzero_work(amount: int | float, what: str,
                       name: str = "nonzero_work") -> GuardCheck:
    """Zero-work detection: ``amount`` units of ``what`` must be > 0."""
    return GuardCheck(
        name=name,
        passed=amount > 0,
        detail=f"{what} = {amount}",
    )


def check_absent(amount: int | float, what: str,
                 name: str = "no_failed_ops") -> GuardCheck:
    """What must not happen did not: ``amount`` of ``what`` must be
    exactly 0."""
    return GuardCheck(
        name=name,
        passed=amount == 0,
        detail=f"{what} = {amount} (expected 0)",
    )


def check_counts_match(client: int, daemon: int,
                       what: str, tolerance: int = 0,
                       name: str = "counts_cross_check") -> GuardCheck:
    """Client-side and daemon-side tallies of ``what`` must reconcile.

    ``tolerance`` absorbs bounded skew (e.g. a request the daemon finished
    after the client timed out); anything beyond it means one side is
    lying about the load.
    """
    return GuardCheck(
        name=name,
        passed=abs(client - daemon) <= tolerance,
        detail=(f"{what}: client={client} daemon={daemon} "
                f"(tolerance {tolerance})"),
    )


def check_alive(alive: bool, when: str,
                name: str = "daemon_alive") -> GuardCheck:
    """The server under load must be alive at ``when`` (before/after)."""
    return GuardCheck(
        name=name,
        passed=alive,
        detail=f"daemon {'healthy' if alive else 'UNREACHABLE'} {when}",
    )
