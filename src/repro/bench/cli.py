"""`repro-pmu bench import|compare` / `repro-pmu hammer` subcommands.

Registered into the main CLI by :func:`register_parsers` (called from
:mod:`repro.core.cli`) so the bench package stays an optional leaf:
heavy imports happen inside the command functions, and nothing in
``repro.core`` imports ``repro.bench`` at module load.

Exit codes: ``0`` when the result is trustworthy (``ok`` / compare PASS),
``1`` when it is ``invalid``/``failed`` or the compare gate trips (the
document is still written for forensics), ``2`` for usage errors
(:class:`~repro.errors.BenchError`, handled in ``main``).
"""

from __future__ import annotations

import argparse
import json

from repro.obs.log import Emitter


def cmd_bench_import(args: argparse.Namespace, out: Emitter) -> int:
    from repro.bench.importer import import_runs
    from repro.bench.result import save_bench

    result = import_runs(args.runs, args.workload)
    path = save_bench(result, args.out)
    out.info("bench result written to %s", path)
    out.result(result.render())
    return 0 if result.ok else 1


def cmd_bench_compare(args: argparse.Namespace, out: Emitter) -> int:
    from repro.bench.compare import compare_bench
    from repro.bench.result import load_bench

    comparison = compare_bench(
        load_bench(args.baseline),
        load_bench(args.candidate),
        max_regression_pct=args.max_regression_pct,
    )
    if args.json:
        out.result(json.dumps({
            "area": comparison.area,
            "max_regression_pct": comparison.max_regression_pct,
            "passed": comparison.passed,
            "problems": list(comparison.problems),
            "deltas": [
                {
                    "name": d.name, "unit": d.unit, "direction": d.direction,
                    "baseline": d.baseline, "candidate": d.candidate,
                    "change_pct": d.change_pct, "regressed": d.regressed,
                    "note": d.note,
                }
                for d in comparison.deltas
            ],
        }, indent=2))
    else:
        out.result(comparison.render())
    return 0 if comparison.passed else 1


def cmd_hammer(args: argparse.Namespace, out: Emitter) -> int:
    from repro.bench.guards import DEFAULT_MIN_ELAPSED_S
    from repro.bench.hammer import run_hammer
    from repro.bench.result import save_bench

    result = run_hammer(
        args.url,
        qps=args.qps,
        duration_s=args.duration,
        concurrency=args.concurrency,
        machine=args.machine,
        workload=args.workload,
        method=args.method,
        scale=args.scale,
        repeats=args.repeats,
        seed_base=args.seed,
        deadline_s=args.deadline,
        timeout_s=args.timeout,
        min_elapsed_s=(DEFAULT_MIN_ELAPSED_S if args.min_elapsed is None
                       else args.min_elapsed),
        area=args.area,
    )
    if args.out:
        path = save_bench(result, args.out)
        out.info("hammer result written to %s", path)
    out.result(json.dumps(result.to_dict(), indent=2) if args.json
               else result.render())
    return 0 if result.ok else 1


def register_parsers(sub, add_obs_args) -> None:
    """Attach ``bench`` and ``hammer`` to the main parser's subparsers."""
    pb = sub.add_parser(
        "bench",
        help="record and gate perfbench's measurements (repro.bench)",
    )
    bsub = pb.add_subparsers(dest="bench_command", required=True)

    pbi = bsub.add_parser(
        "import",
        help="record perfbench runs of one workload as "
             "BENCH_<workload>.json",
    )
    pbi.add_argument("runs", nargs="+", metavar="RUN",
                     help="a file holding one perfbench run's stdout")
    pbi.add_argument("--workload", required=True, metavar="NAME",
                     help="the BENCHMARK.json workload the runs measured")
    pbi.add_argument("--out", required=True, metavar="DIR",
                     help="write BENCH_<workload>.json (traced runs: "
                          "BENCH_<workload>_layers.json) into DIR")
    add_obs_args(pbi)
    pbi.set_defaults(func=cmd_bench_import)

    pbc = bsub.add_parser(
        "compare",
        help="gate a candidate BENCH_*.json against a baseline "
             "(exit 1 on regression)",
    )
    pbc.add_argument("baseline", metavar="BASELINE.json")
    pbc.add_argument("candidate", metavar="CANDIDATE.json")
    pbc.add_argument("--max-regression-pct", type=float, default=20.0,
                     metavar="PCT",
                     help="allowed per-metric regression before the gate "
                          "trips (default 20); when both sides carry 3+ "
                          "samples, a metric must also move by more than "
                          "the baseline's interquartile range")
    pbc.add_argument("--json", action="store_true",
                     help="emit the comparison as JSON")
    add_obs_args(pbc)
    pbc.set_defaults(func=cmd_bench_compare)

    ph = sub.add_parser(
        "hammer",
        help="load-test a running serve daemon at a target QPS",
    )
    ph.add_argument("url", metavar="URL",
                    help="daemon base URL, e.g. http://127.0.0.1:8787")
    ph.add_argument("--qps", type=float, default=8.0,
                    help="offered request rate (default 8)")
    ph.add_argument("--duration", type=float, default=5.0, metavar="SECONDS",
                    help="load duration (default 5)")
    ph.add_argument("--concurrency", type=int, default=4, metavar="N",
                    help="client worker threads (default 4)")
    ph.add_argument("--machine", default="ivybridge")
    ph.add_argument("--workload", default="latency_biased")
    ph.add_argument("--method", default="precise")
    ph.add_argument("--scale", type=float, default=0.01,
                    help="workload size multiplier per request (default "
                         "0.01, a fast cell)")
    ph.add_argument("--repeats", type=int, default=1,
                    help="seeded repeats per request (default 1)")
    ph.add_argument("--seed", type=int, default=100,
                    help="first seed of the repeat range (default 100)")
    ph.add_argument("--deadline", type=float, default=30.0, metavar="SECONDS",
                    help="per-request daemon deadline (default 30)")
    ph.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                    help="client socket timeout (default: deadline + 10)")
    ph.add_argument("--min-elapsed", type=float, default=None,
                    metavar="SECONDS",
                    help="sanity guard: a shorter measured window marks the "
                         "result invalid (default 0.05)")
    ph.add_argument("--area", default="serve",
                    help="result area (default 'serve')")
    ph.add_argument("--out", metavar="DIR", default=None,
                    help="write BENCH_<area>.json into DIR")
    ph.add_argument("--json", action="store_true",
                    help="emit the full result document instead of the "
                         "summary")
    add_obs_args(ph)
    ph.set_defaults(func=cmd_hammer)
