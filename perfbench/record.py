"""Record the expected answers that ``run.py`` checks outputs against.

Usage::

    PYTHONPATH=src python3 perfbench/record.py --seeds 0-31 \\
        [--workloads tables,campaign,serve_mix]

For each seed this computes, in-process and untimed, the digest of the
Table 1+2 documents, of the campaign's ``campaign.json`` and CSVs, and,
for ``serve_mix``, the digest of the 42 hot-set bodies and one digest per
body of the stream's first :data:`inputs.RECORDED_MISSES` misses, and
merges them into ``perfbench/answers.json``.  Re-record only when a
change is *meant* to alter results; a speed-up must leave them untouched.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402

import inputs  # noqa: E402
import run  # noqa: E402


def tables_answer(api, seed: int) -> str:
    config = api.ExperimentConfig(scale=inputs.TABLES_SCALE,
                                  repeats=inputs.REPEATS, seed_base=seed)
    document = inputs.tables_bytes(api, api.run_table1(config),
                                   api.run_table2(config))
    return hashlib.sha256(document).hexdigest()


def campaign_answer(api, seed: int) -> str:
    work = run.WORK / f"record-campaign-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        api.run_campaign(inputs.campaign_spec(api, seed), work / "out",
                         jobs=inputs.CAMPAIGN_JOBS,
                         cache=api.CacheConfig(root=str(work / "cache")))
        return inputs.artifacts_digest(inputs.campaign_artifacts(work / "out"))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def serve_answer(api, seed: int) -> dict:
    def body(document: dict) -> bytes:
        request = api.EvaluateRequest.from_dict(document)
        return api.evaluate_request(request).to_json().encode("utf-8")

    stream = inputs.serve_stream(
        seed, inputs.RECORDED_MISSES * inputs.MISS_EVERY)
    return {
        "hot": inputs.bodies_digest(body(document)
                                    for document in inputs.hot_cells(seed)),
        "misses": [inputs.body_digest(body(document))
                   for is_miss, document in stream if is_miss],
    }


def seed_range(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True, type=seed_range)
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    from repro import api

    answers = run.load_answers()
    for workload in args.workloads.split(","):
        table = answers.setdefault(workload, {})
        for seed in args.seeds:
            if workload == "tables":
                table[str(seed)] = tables_answer(api, seed)
            elif workload == "campaign":
                table[str(seed)] = campaign_answer(api, seed)
            else:
                table[str(seed)] = serve_answer(api, seed)
            print(workload, seed, flush=True)
            run.ANSWERS.write_text(json.dumps(answers, indent=1,
                                              sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
