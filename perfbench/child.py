"""One benchmark pass in a fresh process: ``python child.py '<json>'``.

The parent (:mod:`run`) starts this script with ``src`` on
``PYTHONPATH`` and an empty work directory, so every pass pays process
start, imports and program generation exactly as a user's fresh
``repro-pmu`` invocation does.  The last line of stdout is a JSON
document with the pass's check results and the ``(start, end)``
``time.monotonic()`` stamps of every timed call; the parent scales each
by the machine's speed at that time.

Modes:

``setup``     import the public API and exit (a bare set-up sample);
``tables``    a cold Table 1+2 build, warm rebuilds, single-cell lookups;
``campaign``  a cold campaign, warm reruns into fresh directories, lookups.
"""

from __future__ import annotations

import sys

# run.py points PYTHONPYCACHEPREFIX into its work directory; without it,
# write no bytecode next to the sources.
if sys.pycache_prefix is None:
    sys.dont_write_bytecode = True

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from repro import api  # noqa: E402  (the import a user pays for)

READY = time.monotonic()

import inputs  # noqa: E402


def _rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _lookups(requests, expected, count, rng, store):
    """Answer ``count`` single-cell requests from the filled store.

    Each call opens the store afresh, as ``repro-pmu run`` does; the
    answer must equal the cell the batch call produced.  Returns each
    call's ``(start, end)`` and the number of wrong answers.
    """
    order = list(range(len(requests)))
    spans: list[tuple[float, float]] = []
    failed = 0
    while len(spans) < count:
        rng.shuffle(order)
        for index in order[: count - len(spans)]:
            started = time.monotonic()
            result = api.evaluate_request(
                requests[index], cache=api.CacheConfig(root=str(store)))
            spans.append((started, time.monotonic()))
            if inputs.cell_answer(result) != expected[index]:
                failed += 1
    return spans, failed


def tables_pass(options: dict, work: Path, probe) -> dict:
    seed = options["seed"]
    store = work / "cache"
    config = api.ExperimentConfig(scale=inputs.TABLES_SCALE,
                                  repeats=inputs.REPEATS, seed_base=seed)

    def build():
        cache = api.CacheConfig(root=str(store))
        first = api.run_table1(config, cache=cache)
        cache = api.CacheConfig(root=str(store))
        return first, api.run_table2(config, cache=cache)

    started = time.monotonic()
    table1, table2 = build()
    cold = (started, time.monotonic())
    cold_build_s = probe.PROBE.seconds["workloads.build"] if probe else None
    document = inputs.tables_bytes(api, table1, table2)
    cells = [(spec, stats) for table in (table1, table2)
             for spec, stats in table.cells.items() if stats is not None]

    failed = 0
    warm: list[tuple[float, float]] = []
    for _ in range(options["warm"]):
        started = time.monotonic()
        warm1, warm2 = build()
        warm.append((started, time.monotonic()))
        failed += inputs.tables_bytes(api, warm1, warm2) != document

    requests = [inputs.cell_request(api, spec, seed, inputs.TABLES_SCALE)
                for spec, _ in cells]
    expected = [inputs.stats_answer(stats) for _, stats in cells]
    rng = random.Random(f"tables-{seed}-{options['index']}")
    lookup, lookup_failed = _lookups(requests, expected,
                                     options["lookups"], rng, store)
    return {
        "cold": cold, "cold_build_s": cold_build_s, "cells": len(cells),
        "warm": warm, "lookup": lookup,
        "attempted": 1 + len(warm) + len(lookup),
        "failed": failed + lookup_failed,
        "digest": hashlib.sha256(document).hexdigest(),
    }


def campaign_pass(options: dict, work: Path, probe) -> dict:
    seed = options["seed"]
    store = work / "cache"
    spec = inputs.campaign_spec(api, seed)

    def run(out: Path):
        return api.run_campaign(spec, out, jobs=inputs.CAMPAIGN_JOBS,
                                cache=api.CacheConfig(root=str(store)))

    started = time.monotonic()
    result = run(work / "cold")
    cold = (started, time.monotonic())
    artifacts = inputs.campaign_artifacts(work / "cold")

    failed = 0
    warm: list[tuple[float, float]] = []
    for index in range(options["warm"]):
        out = work / f"warm{index}"
        started = time.monotonic()
        run(out)
        warm.append((started, time.monotonic()))
        failed += inputs.campaign_artifacts(out) != artifacts

    points = [point for point, stats in result.cells.items()
              if stats is not None]
    requests = [inputs.cell_request(api, point.cell, seed,
                                    inputs.CAMPAIGN_SCALE, fidelity=True)
                for point in points]
    expected = [inputs.stats_answer(result.cells[point],
                                    result.fidelity[point])
                for point in points]
    rng = random.Random(f"campaign-{seed}-{options['index']}")
    lookup, lookup_failed = _lookups(requests, expected,
                                     options["lookups"], rng, store)
    return {
        "cold": cold, "cells": len(points), "warm": warm, "lookup": lookup,
        "attempted": 1 + len(warm) + len(lookup),
        "failed": failed + lookup_failed,
        "digest": inputs.artifacts_digest(artifacts),
    }


PASSES = {"tables": tables_pass, "campaign": campaign_pass}


def main() -> int:
    options = json.loads(sys.argv[1])
    report: dict = {"ready": READY}
    mode = options["mode"]
    if mode != "setup":
        work = Path(options["work"])
        probe = None
        if options["trace"]:
            import probe

            probe.install()
            spool = work / "spool"
            spool.mkdir(parents=True, exist_ok=True)
            os.environ[probe.SPOOL_ENV] = str(spool)
        report.update(PASSES[mode](options, work, probe))
        if probe is not None:
            probe.merge_spool(work / "spool")
            report["spans"] = probe.PROBE.snapshot()
    report["rss_mb"] = _rss_mb()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
