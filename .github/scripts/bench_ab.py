"""Same-runner A/B speed gate: ``python .github/scripts/bench_ab.py BASE``.

Measures two programs on one machine with one benchmark: the ``src/`` of
the commit BASE and the ``src/`` of this checkout (the head, uncommitted
changes included), both timed by this checkout's ``perfbench/``.

1. ``git worktree add`` BASE outside the checkout and copy the head's
   ``perfbench/`` and ``BENCHMARK.json`` into it.
2. Run every workload once per side in each of :data:`PAIRS` pairs,
   alternating which side goes first; stop early, after at least
   :data:`MIN_PAIRS`, once the pairs overrun :data:`PAIRS_BUDGET_S`.
   Pair ``i`` runs seed ``FIRST_SEED + i`` on both sides.  perfbench has
   recorded answers only below seed 32, so a change that alters results
   on purpose does not fail the base side.
3. ``repro-pmu bench import`` each side's runs and gate them with
   ``repro-pmu bench compare --max-regression-pct 25``.  With three or
   more runs a side, a metric fails only if its median is worse by more
   than 25% *and* by more than the base runs' interquartile range.
4. For a workload that fails, make one ``--trace 1`` run per side and
   print the timing stage that regressed most.
5. Remove the worktree, however the script exits.

Exit status: 0 when every workload passes, 1 when one regresses or a run
is untrustworthy, 2 when BASE cannot be checked out.  Captures and
``BENCH_*.json`` documents stay under ``$TMPDIR/bench-ab``.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HEAD = Path(__file__).resolve().parents[2]
OUT = Path(tempfile.gettempdir()) / "bench-ab"
WORKLOADS = ("tables", "campaign", "serve_mix")
PAIRS = 5
SECONDS = 10
FIRST_SEED = 32
MAX_REGRESSION_PCT = 25
TIMING_UNITS = ("s", "ms")
#: A badly slowed head stretches every run (perfbench caps one at 170 s).
#: Once the pairs have taken this long, the gate judges the pairs run so
#: far, at least the spread rule's three, so the traced runs still fit in
#: the CI job's 15 minutes.
PAIRS_BUDGET_S = 9 * 60
MIN_PAIRS = 3


def perfbench(root: Path, workload: str, seed: int, trace: int,
              capture: Path) -> None:
    """One perfbench run of the program under ``root``; stdout goes to
    ``capture``, stderr next to it."""
    capture.parent.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    started = time.monotonic()
    with capture.open("w") as out, \
            capture.with_suffix(".err").open("w") as err:
        process = subprocess.Popen(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(SECONDS),
             "--trace", str(trace)],
            cwd=root, env=env, stdout=out, stderr=err,
            start_new_session=True)
        try:
            process.wait()
        finally:
            if process.poll() is None:      # interrupted: stop its children
                os.killpg(process.pid, signal.SIGKILL)
                process.wait()
    print(f"  {capture.parent.name:<4} {workload:<9} seed {seed:<3} "
          f"trace {trace}  exit {process.returncode}  "
          f"{time.monotonic() - started:5.1f} s", flush=True)


def repro(*args: str) -> subprocess.CompletedProcess:
    """One ``repro-pmu`` command of the head's program, run at the head's
    root (where ``bench import`` finds ``BENCHMARK.json``)."""
    env = dict(os.environ, PYTHONPATH=str(HEAD / "src"))
    return subprocess.run([sys.executable, "-m", "repro.core.cli", *args],
                          cwd=HEAD, env=env, capture_output=True, text=True)


def compare(workload: str, captures: dict[str, list[Path]], traced: bool,
            *extra: str) -> subprocess.CompletedProcess:
    """Import each side's captures, then compare base with head."""
    area = f"{workload}_layers" if traced else workload
    documents = []
    for side, runs in captures.items():
        out = OUT / "docs" / side
        imported = repro("bench", "import", *map(str, runs),
                         "--workload", workload, "--out", str(out))
        if imported.returncode == 2:
            sys.exit(f"bench import failed for {side} {workload}:\n"
                     f"{imported.stderr}")
        documents.append(str(out / f"BENCH_{area}.json"))
    return repro("bench", "compare", *documents,
                 "--max-regression-pct", str(MAX_REGRESSION_PCT), *extra)


def name_stage(workload: str, sides: dict[str, Path]) -> None:
    """Trace one run per side and print the worst-regressed timing stage."""
    captures = {}
    for side, root in sides.items():
        captures[side] = [OUT / "runs" / side / f"{workload}-traced.out"]
        perfbench(root, workload, FIRST_SEED, 1, captures[side][0])
    result = compare(workload, captures, True, "--json")
    try:
        deltas = json.loads(result.stdout)["deltas"]
    except (ValueError, KeyError):
        print(f"{workload}: traced runs could not be compared:\n"
              f"{result.stdout}{result.stderr}")
        return
    timings = [d for d in deltas
               if d["unit"] in TIMING_UNITS and d["baseline"] is not None
               and d["candidate"] is not None]
    if not timings:
        print(f"{workload}: the traced runs report no timing stage")
        return

    def worsening(delta: dict) -> float:
        if delta["change_pct"] is not None:
            return delta["change_pct"]
        return float("-inf") if delta["regressed"] else 0.0

    worst = min(timings, key=worsening)
    change = ("from zero" if worst["change_pct"] is None
              else f"{-worst['change_pct']:.0f}% worse")
    print(f"{workload}: most regressed stage {worst['name']}: "
          f"{worst['baseline']:.4g} -> {worst['candidate']:.4g} "
          f"{worst['unit']} ({change})")


def gate(sides: dict[str, Path]) -> list[str]:
    """Run the pairs and return the workloads that failed the gate."""
    captures = {(side, w): [] for side in sides for w in WORKLOADS}
    started = time.monotonic()
    for pair in range(PAIRS):
        seed = FIRST_SEED + pair
        order = ("base", "head") if pair % 2 == 0 else ("head", "base")
        print(f"pair {pair + 1}/{PAIRS}", flush=True)
        for workload in WORKLOADS:
            for side in order:
                capture = OUT / "runs" / side / f"{workload}-{seed}.out"
                perfbench(sides[side], workload, seed, 0, capture)
                captures[side, workload].append(capture)
        if (pair + 1 >= MIN_PAIRS
                and time.monotonic() - started > PAIRS_BUDGET_S):
            print(f"pair budget spent: judging {pair + 1} pairs", flush=True)
            break
    failed = []
    for workload in WORKLOADS:
        result = compare(workload, {side: captures[side, workload]
                                    for side in sides}, False)
        print(result.stdout + result.stderr, end="", flush=True)
        if result.returncode != 0:
            failed.append(workload)
            name_stage(workload, sides)
    return failed


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n")[0], file=sys.stderr)
        return 2
    started = time.monotonic()
    shutil.rmtree(OUT, ignore_errors=True)
    worktree = OUT / "base"
    signal.signal(signal.SIGTERM, _terminate)
    try:
        # A killed earlier run may have left its worktree registered.
        subprocess.run(["git", "worktree", "prune"], cwd=HEAD,
                       capture_output=True)
        added = subprocess.run(
            ["git", "worktree", "add", "--detach", str(worktree), argv[0]],
            cwd=HEAD, capture_output=True, text=True)
        if added.returncode != 0:
            print(f"cannot check out {argv[0]}: {added.stderr}",
                  file=sys.stderr)
            return 2
        shutil.rmtree(worktree / "perfbench", ignore_errors=True)
        shutil.copytree(HEAD / "perfbench", worktree / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(HEAD / "BENCHMARK.json", worktree / "BENCHMARK.json")
        failed = gate({"base": worktree, "head": HEAD})
    finally:
        subprocess.run(["git", "worktree", "remove", "--force",
                        str(worktree)], cwd=HEAD, capture_output=True)
        subprocess.run(["git", "worktree", "prune"], cwd=HEAD,
                       capture_output=True)
    verdict = f"FAIL: {', '.join(failed)}" if failed else "PASS"
    print(f"bench A/B {verdict} ({time.monotonic() - started:.0f} s wall)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
