"""The benchmark's inputs, all derived from ``--seed``, and its answer
encodings.

Nothing here times anything.  :mod:`child` (fresh-process passes),
:mod:`run` (the entry point and the serve client) and the answer recorder share
these definitions, so a recorded digest and a measured run always describe
the same requests.  Functions take the ``repro.api`` module as an argument
so that :mod:`run` can import this file without importing the program.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

#: The seven Table 3 methods every workload evaluates.
METHODS = ("classic", "precise", "precise_rand", "precise_prime",
           "precise_prime_rand", "pdir_fix", "lbr")
REPEATS = 5

# -- tables ------------------------------------------------------------------

TABLES_SCALE = 0.05

# -- campaign ----------------------------------------------------------------

CAMPAIGN_SCALE = 1.0
CAMPAIGN_WORKLOADS = ("callchain", "phased", "interleaved", "memaccess",
                      "omnetpp")
CAMPAIGN_PERIODS = (500, 2000, 8000)
CAMPAIGN_JOBS = 2

# -- serve_mix ---------------------------------------------------------------

SERVE_SCALE = 0.05
SERVE_MACHINE = "ivybridge"          # the one machine with all 7 methods
HOT_WORKLOADS = ("latency_biased", "callchain", "phased", "interleaved",
                 "mcf", "omnetpp")
#: One request in this many is a miss (an unseen ``seed_base``).
MISS_EVERY = 10
#: Server-side deadline sent with every request (seconds).
DEADLINE_S = 60.0
#: Misses per seed whose bodies ``answers.json`` records: more than a
#: run at BENCHMARK.json's ``run_seconds`` sends.
RECORDED_MISSES = 110


def campaign_spec(api, seed: int):
    return api.CampaignSpec(
        name="perfbench", workloads=CAMPAIGN_WORKLOADS, methods=METHODS,
        periods=CAMPAIGN_PERIODS, seed_counts=(REPEATS,), seed_base=seed,
        scale=CAMPAIGN_SCALE, fidelity=True,
    )


def cell_request(api, spec, seed: int, scale: float, fidelity=False):
    """The single-cell request that addresses a batch call's cell."""
    return api.EvaluateRequest(
        machine=spec.machine, workload=spec.workload, method=spec.method,
        period=spec.period, scale=scale, repeats=REPEATS, seed_base=seed,
        fidelity=fidelity,
    )


def stats_answer(stats, fidelity=None) -> tuple:
    """A comparable encoding of one cell's answer."""
    return (tuple(stats.errors),
            None if fidelity is None else json.dumps(fidelity.to_dict(),
                                                     sort_keys=True))


def cell_answer(result) -> tuple:
    return stats_answer(result.stats, result.fidelity)


def tables_bytes(api, table1, table2) -> bytes:
    """Canonical bytes of the Table 1 and Table 2 documents."""
    return json.dumps([api.table_document(table1),
                       api.table_document(table2)],
                      sort_keys=True, separators=(",", ":")).encode("utf-8")


def campaign_artifacts(out: Path) -> dict[str, bytes]:
    """``campaign.json`` and every CSV report of one campaign directory."""
    names = ["campaign.json"] + sorted(p.name for p in out.glob("*.csv"))
    return {name: (out / name).read_bytes() for name in names}


def body_digest(body: bytes) -> str:
    """Short digest of one response body."""
    return hashlib.sha256(body).hexdigest()[:16]


def bodies_digest(bodies) -> str:
    """Digest of response bodies in stream order."""
    digest = hashlib.sha256()
    for body in bodies:
        digest.update(hashlib.sha256(body).digest())
    return digest.hexdigest()


def artifacts_digest(artifacts: dict[str, bytes]) -> str:
    digest = hashlib.sha256()
    for name, data in sorted(artifacts.items()):
        digest.update(name.encode("utf-8") + b"\0")
        digest.update(hashlib.sha256(data).digest())
    return digest.hexdigest()


# -- serve_mix request stream ------------------------------------------------


def hot_cells(seed: int) -> list[dict]:
    """The 42 cells filled before load: 6 workloads x 7 methods."""
    return [_request_document(workload, method, seed)
            for workload in HOT_WORKLOADS for method in METHODS]


def _request_document(workload: str, method: str, seed_base: int) -> dict:
    return {"machine": SERVE_MACHINE, "workload": workload, "method": method,
            "scale": SERVE_SCALE, "repeats": REPEATS, "seed_base": seed_base}


def serve_stream(seed: int, count: int) -> list[tuple[bool, dict]]:
    """``count`` ``(is_miss, request document)`` pairs in send order.

    Every :data:`MISS_EVERY`-th request (from a seeded offset) is a miss,
    and misses cycle through the hot workloads in seeded order, so every
    seed offers the same mix of hit and miss costs, and two slow misses
    never arrive back to back.  Each miss carries a ``seed_base`` no other
    request uses.
    """
    rng = random.Random(f"serve-{seed}")
    hot = hot_cells(seed)
    stream: list[tuple[bool, dict]] = []
    used = {seed}
    cycle: list[str] = []
    offset = rng.randrange(MISS_EVERY)
    for index in range(count):
        if index % MISS_EVERY != offset:
            stream.append((False, dict(rng.choice(hot))))
            continue
        if not cycle:
            cycle = list(HOT_WORKLOADS)
            rng.shuffle(cycle)
        seed_base = seed
        while seed_base in used:
            seed_base = rng.randrange(1_000_000, 1_000_000_000)
        used.add(seed_base)
        stream.append((True, _request_document(
            cycle.pop(), rng.choice(METHODS), seed_base)))
    return stream
