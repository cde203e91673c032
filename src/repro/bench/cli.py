"""`repro-pmu bench ...` / `repro-pmu hammer` subcommands.

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


def _csv(value: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in value.split(",") if part.strip())


def _csv_int(value: str) -> tuple[int, ...]:
    return tuple(int(part) for part in _csv(value))


def cmd_bench_run(args: argparse.Namespace, out: Emitter) -> int:
    from repro.bench.guards import DEFAULT_MIN_ELAPSED_S
    from repro.bench.harness import run_bench
    from repro.bench.result import save_bench

    result = run_bench(
        args.suite,
        machine=args.machine,
        workloads=args.workloads,
        methods=args.methods,
        periods=args.periods,
        scale=args.scale,
        repeats=args.repeats,
        seed_base=args.seed,
        iterations=args.iterations,
        warmup=args.warmup,
        min_elapsed_s=(DEFAULT_MIN_ELAPSED_S if args.min_elapsed is None
                       else args.min_elapsed),
        cache_dir=args.cache_dir,
        cache_max_bytes=getattr(args, "cache_max_bytes", None),
        cache_hot_entries=getattr(args, "cache_hot_entries", 0) or 0,
        area=args.area,
    )
    if args.out:
        path = save_bench(result, args.out)
        out.info("bench result written to %s", path)
    out.result(json.dumps(result.to_dict(), indent=2) if args.json
               else result.render())
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


def register_parsers(sub, add_obs_args, add_cache_budget_args=None) -> None:
    """Attach ``bench`` and ``hammer`` to the main parser's subparsers.

    ``add_cache_budget_args`` is the core CLI's shared
    ``--cache-max-bytes``/``--cache-hot-entries`` helper, so the bench
    warm phase can measure the pipeline *under a cache budget*.
    """
    pb = sub.add_parser(
        "bench",
        help="measure and gate the pipeline's own performance (repro.bench)",
    )
    bsub = pb.add_subparsers(dest="bench_command", required=True)

    pbr = bsub.add_parser(
        "run",
        help="benchmark table/sweep evaluation; writes BENCH_<area>.json",
    )
    pbr.add_argument("suite", nargs="?", default="table1",
                     choices=("table1", "table2", "sweep"),
                     help="what to measure (default table1)")
    pbr.add_argument("--machine", default="ivybridge")
    pbr.add_argument("--workloads", type=_csv, default=None, metavar="A,B",
                     help="workload subset (default: the suite's full set)")
    pbr.add_argument("--methods", type=_csv, default=None, metavar="A,B",
                     help="method subset (default: the table methods)")
    pbr.add_argument("--periods", type=_csv_int, default=None,
                     metavar="N,M", help="sweep suite period axis")
    pbr.add_argument("--scale", type=float, default=0.05,
                     help="workload size multiplier (default 0.05)")
    pbr.add_argument("--repeats", type=int, default=1,
                     help="seeded repeats per cell (default 1)")
    pbr.add_argument("--seed", type=int, default=100,
                     help="first seed of the repeat range (default 100)")
    pbr.add_argument("--iterations", type=int, default=3, metavar="N",
                     help="measured passes per phase (default 3; the "
                          "headline value is their median)")
    pbr.add_argument("--warmup", type=int, default=1, metavar="N",
                     help="un-timed warmup passes (default 1; also fills "
                          "the warm-phase artifact cache)")
    pbr.add_argument("--min-elapsed", type=float, default=None,
                     metavar="SECONDS",
                     help="sanity guard: a measured pass shorter than this "
                          "marks the result invalid (default 0.05)")
    pbr.add_argument("--cache-dir", metavar="DIR", default=None,
                     help="warm-phase artifact cache location (default: a "
                          "fresh temp directory)")
    if add_cache_budget_args is not None:
        add_cache_budget_args(pbr)
    pbr.add_argument("--area", default=None,
                     help="result area override (default: the suite name)")
    pbr.add_argument("--out", metavar="DIR", default=None,
                     help="write BENCH_<area>.json into DIR")
    pbr.add_argument("--json", action="store_true",
                     help="emit the full result document instead of the "
                          "summary")
    add_obs_args(pbr)
    pbr.set_defaults(func=cmd_bench_run)

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
                          "trips (default 20; use a wider value across "
                          "machines)")
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
