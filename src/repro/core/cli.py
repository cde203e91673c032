"""Command-line interface: regenerate the paper's tables and claims.

Examples::

    repro-pmu list
    repro-pmu table1 --scale 0.5 --repeats 3
    repro-pmu table2 --scale 0.5 --trace run.jsonl
    repro-pmu table3
    repro-pmu claims --scale 0.5 --quiet
    repro-pmu run --machine ivybridge --workload mcf --method lbr --seed 7
    repro-pmu sweep run spec.json --out campaigns/periods --jobs 4
    repro-pmu sweep status campaigns/periods --json
    repro-pmu cache stats --json
    repro-pmu serve --port 8787 --workers 2 --cache

Every subcommand accepts ``--verbose``/``--quiet`` (diagnostics and live
per-cell progress go to stderr through ``logging``) and ``--trace
FILE.jsonl``, which streams one schema-versioned event per span/counter to
the file and writes a provenance manifest (``FILE.meta.json``) next to it.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from pathlib import Path

from repro._version import __version__
from repro.errors import BenchError, RequestError, SweepError
from repro.cpu.uarch import ALL_UARCHES
from repro.obs.log import get_logger
from repro.obs import (
    Collector,
    JsonlWriter,
    build_manifest,
    install,
    manifest_path_for,
    render_span_tree,
    setup_cli_logging,
    write_manifest,
)
from repro.obs.log import Emitter
from repro.core.cache import ArtifactCache, CacheConfig
from repro.core.compare import evaluate_all_claims
from repro.core.experiment import ExperimentConfig, Harness
from repro.core.methods import METHODS
from repro.core.tables import build_table1, build_table2, render_table3
from repro.workloads.registry import list_workloads

#: Default first seed of the repeat range (matches ExperimentConfig).
DEFAULT_SEED = 100


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="debug-level diagnostics plus a span-tree summary on stderr",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress progress and informational output (results still print)",
    )
    parser.add_argument(
        "--trace", metavar="FILE.jsonl", default=None,
        help="stream span/counter events to FILE.jsonl and write a "
             "provenance manifest next to it",
    )


def _add_harness_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="workload size multiplier (default 1.0, a few M instructions)",
    )
    parser.add_argument(
        "--repeats", type=int, default=5,
        help="seeded repeats per cell (default 5, as in the paper)",
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"first seed of the repeat range (default {DEFAULT_SEED}); "
             "runs with the same seed/scale/repeats are reproducible",
    )
    parser.add_argument(
        "--markdown", action="store_true",
        help="render tables as markdown instead of fixed-width text",
    )
    parser.add_argument(
        "--cache", action="store_true",
        help="persist traces/references/cell stats in the artifact cache "
             "(~/.cache/repro or $REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="artifact cache location (implies --cache)",
    )
    _add_cache_budget_args(parser)


def _parse_size(text: str) -> int:
    """Parse a byte size: a plain integer or with a k/m/g suffix."""
    units = {"k": 1024, "m": 1024 ** 2, "g": 1024 ** 3}
    raw = text.strip().lower().removesuffix("b")
    factor = 1
    if raw and raw[-1] in units:
        factor = units[raw[-1]]
        raw = raw[:-1]
    try:
        value = int(raw) * factor
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid size {text!r} (want e.g. 4096, 64k, 16m, 1g)"
        ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"size must be positive: {text!r}")
    return value


def _add_cache_budget_args(parser: argparse.ArgumentParser) -> None:
    """The cache budget knobs shared by run/table/sweep/serve."""
    parser.add_argument(
        "--cache-max-bytes", metavar="SIZE", type=_parse_size, default=None,
        help="bound the disk cache to SIZE bytes (accepts k/m/g suffixes); "
             "least-recently-used entries are evicted, which never changes "
             "results (implies --cache)",
    )
    parser.add_argument(
        "--cache-hot-entries", metavar="N", type=int, default=0,
        help="keep the N hottest entries decoded in memory, shared across "
             "threads (default 0 = no hot tier; implies --cache)",
    )


def _add_jobs_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for cell evaluation (default 1 = serial; "
             "results are bit-identical either way)",
    )


def _cache_config(args: argparse.Namespace) -> "CacheConfig | None":
    """The :class:`CacheConfig` described by a parsed namespace.

    Any cache-shaping flag (``--cache-dir``, ``--remote-cache``,
    ``--cache-max-bytes``, ``--cache-hot-entries``) implies ``--cache``;
    ``None`` means caching stays off.
    """
    root = getattr(args, "cache_dir", None)
    remote = getattr(args, "remote_cache", None)
    max_bytes = getattr(args, "cache_max_bytes", None)
    hot_entries = getattr(args, "cache_hot_entries", 0) or 0
    enabled = (getattr(args, "cache", False) or bool(root) or bool(remote)
               or max_bytes is not None or hot_entries > 0)
    if not enabled:
        return None
    return CacheConfig(
        root=str(root) if root else None,
        max_bytes=max_bytes,
        hot_entries=hot_entries,
        remote=remote or None,
    )


def _resolve_cache(args: argparse.Namespace) -> ArtifactCache | None:
    config = _cache_config(args)
    return None if config is None else config.build()


def _make_harness(args: argparse.Namespace) -> Harness:
    return Harness(ExperimentConfig(
        scale=args.scale,
        repeats=args.repeats,
        seed_base=getattr(args, "seed", DEFAULT_SEED),
    ), cache=_resolve_cache(args))


def _cmd_list(_: argparse.Namespace, out: Emitter) -> int:
    out.result("Machines:")
    for uarch in ALL_UARCHES:
        features = []
        if uarch.has_pebs:
            features.append("PEBS")
        if uarch.has_pdir:
            features.append("PDIR")
        if uarch.has_ibs:
            features.append("IBS")
        if uarch.has_lbr:
            features.append(f"LBR({uarch.lbr_depth})")
        out.result(f"  {uarch.name:12s} {uarch.vendor:6s} "
                   f"{', '.join(features)}")
    out.result("\nWorkloads:")
    for workload in list_workloads():
        out.result(f"  {workload.name:16s} [{workload.category}] "
                   f"{workload.description}")
    out.result("\nMethods:")
    for spec in METHODS:
        tag = "" if spec.in_table3 else " (supplemental)"
        out.result(f"  {spec.key:20s} {spec.title}{tag}")
    return 0


def _cmd_workloads(args: argparse.Namespace, out: Emitter) -> int:
    workloads = list_workloads(category=args.category)
    if args.json:
        out.result(json.dumps([
            {
                "name": w.name,
                "category": w.category,
                "description": w.description,
                "default_period": w.default_period,
            }
            for w in workloads
        ], indent=2))
        return 0
    out.result(f"{'name':16s} {'category':12s} {'period':>7s}  description")
    for w in workloads:
        out.result(f"{w.name:16s} {w.category:12s} {w.default_period:7d}  "
                   f"{w.description}")
    return 0


def _cmd_table1(args: argparse.Namespace, out: Emitter) -> int:
    table = build_table1(_make_harness(args), jobs=args.jobs)
    out.result(table.to_markdown() if args.markdown else table.render())
    return 0


def _cmd_table2(args: argparse.Namespace, out: Emitter) -> int:
    table = build_table2(_make_harness(args), jobs=args.jobs)
    out.result(table.to_markdown() if args.markdown else table.render())
    return 0


def _cmd_cache(args: argparse.Namespace, out: Emitter) -> int:
    max_bytes = getattr(args, "max_bytes", None)
    cache = ArtifactCache(args.cache_dir,
                          config=CacheConfig(max_bytes=max_bytes))
    if args.action == "stats":
        stats = cache.stats()
        if args.json:
            out.result(json.dumps(stats.to_dict(), indent=2))
        else:
            out.result(stats.render())
        return 0
    if args.action == "trim":
        if max_bytes is None:
            out.error("cache trim needs --max-bytes")
            return 2
        evicted = cache.enforce_budget()
        remaining = cache.stats()
        out.result(f"evicted {evicted} entries from {cache.root} "
                   f"({remaining.entries} entries, "
                   f"{remaining.total_bytes:,} bytes remain)")
        return 0
    removed = cache.clear()
    out.result(f"removed {removed} cache entries from {cache.root}")
    return 0


def _cmd_table3(_: argparse.Namespace, out: Emitter) -> int:
    out.result(render_table3())
    return 0


def _cmd_sweep_run(args: argparse.Namespace, out: Emitter) -> int:
    from repro.sweep import CampaignSpec, FleetConfig, run_campaign_dir

    spec = CampaignSpec.load(args.spec)
    progress = get_logger("progress")
    live = progress.isEnabledFor(logging.INFO)

    def on_point(point, stats, done, total):
        if live:
            progress.info("[%3d/%d] %s  %s", done, total, point,
                          "--" if stats is None else stats)

    workers = None
    fleet = None
    if args.workers:
        workers = [url for part in args.workers
                   for url in part.split(",") if url.strip()]
        fleet = FleetConfig(
            max_inflight=args.max_inflight,
            cell_deadline_s=args.cell_deadline,
            max_attempts=args.max_attempts,
        )
    result = run_campaign_dir(
        spec, args.out, jobs=args.jobs, cache=_resolve_cache(args),
        resume=args.resume, workers=workers, fleet=fleet, on_point=on_point,
        manifest_extra={"command": "sweep run"},
    )
    out.result(
        f"campaign {spec.name!r}: {result.num_points} cells "
        f"({result.num_blank} blank) -> {args.out}/report.md"
    )
    return 0


def _sweep_progress(out_dir: Path) -> dict[str, object]:
    """Journal-derived progress of one campaign directory."""
    from repro.sweep import CampaignSpec, load_journal
    from repro.sweep.engine import JOURNAL_FILENAME, SPEC_FILENAME

    spec = CampaignSpec.load(out_dir / SPEC_FILENAME)
    points = spec.expand()
    journal_path = out_dir / JOURNAL_FILENAME
    completed: dict[str, object] = {}
    if journal_path.exists():
        state = load_journal(journal_path)
        if state.spec_digest != spec.digest():
            raise SweepError(
                f"journal in {out_dir} does not match its spec.json"
            )
        completed = state.completed
    done = sum(1 for p in points if p.point_id in completed)
    blank = sum(1 for p in points
                if completed.get(p.point_id, ()) is None)

    def axis(key_of) -> dict[str, dict[str, int]]:
        progress: dict[str, dict[str, int]] = {}
        for p in points:
            entry = progress.setdefault(str(key_of(p)),
                                        {"done": 0, "total": 0})
            entry["total"] += 1
            if p.point_id in completed:
                entry["done"] += 1
        return progress

    from repro.workloads.registry import get_workload

    return {
        "name": spec.name,
        "spec_digest": spec.digest(),
        "cells_total": len(points),
        "cells_done": done,
        "cells_blank": blank,
        "cells_remaining": len(points) - done,
        "complete": done == len(points),
        "axes": {
            "workloads": axis(lambda p: p.cell.workload),
            "categories": axis(
                lambda p: get_workload(p.cell.workload).category),
            "methods": axis(lambda p: p.cell.method),
            "machines": axis(lambda p: p.cell.machine),
            "periods": axis(lambda p: p.cell.period),
        },
    }


def _cmd_sweep_status(args: argparse.Namespace, out: Emitter) -> int:
    status = _sweep_progress(Path(args.out))
    cache = _resolve_cache(args)
    if cache is not None:
        status["cache"] = cache.stats().to_dict()
    if args.json:
        out.result(json.dumps(status, indent=2))
        return 0
    out.result(f"campaign:  {status['name']}")
    out.result(f"cells:     {status['cells_done']}/{status['cells_total']} "
               f"done ({status['cells_blank']} blank)")
    for axis_name in ("workloads", "categories", "methods", "machines",
                      "periods"):
        progress = status["axes"][axis_name]
        rendered = ", ".join(
            f"{value} {entry['done']}/{entry['total']}"
            for value, entry in progress.items()
        )
        out.result(f"{axis_name + ':':10s} {rendered}")
    if status["complete"]:
        out.result("state:     complete")
    else:
        out.result(f"state:     {status['cells_remaining']} remaining "
                   "(finish with: sweep run SPEC --out DIR --resume)")
    if "cache" in status:
        stats = status["cache"]
        out.result(f"cache:     {stats['entries']} entries, "
                   f"{stats['total_bytes']:,} bytes at {stats['root']}")
    return 0


def _cmd_sweep_report(args: argparse.Namespace, out: Emitter) -> int:
    from repro.sweep import CampaignSpec, result_from_journal, write_reports
    from repro.sweep.engine import (
        DOCUMENT_FILENAME,
        JOURNAL_FILENAME,
        SPEC_FILENAME,
    )

    out_dir = Path(args.out)
    spec = CampaignSpec.load(out_dir / SPEC_FILENAME)
    result = result_from_journal(spec, out_dir / JOURNAL_FILENAME)
    result.save(out_dir / DOCUMENT_FILENAME)
    paths = write_reports(result, out_dir)
    for path in paths:
        out.result(str(path))
    return 0


def _cmd_claims(args: argparse.Namespace, out: Emitter) -> int:
    results = evaluate_all_claims(_make_harness(args))
    for result in results:
        out.result(str(result))
    failed = sum(1 for r in results if not r.holds)
    out.result(f"\n{len(results) - failed}/{len(results)} claims hold")
    return 1 if failed else 0


def _cmd_run(args: argparse.Namespace, out: Emitter) -> int:
    from repro.api import EvaluateRequest, evaluate_request

    # One validation and evaluation path shared with repro.api and the
    # serve daemon: the --json output is byte-identical to a served
    # POST /v1/evaluate response for the same request.
    request = EvaluateRequest(
        machine=args.machine, workload=args.workload, method=args.method,
        period=args.period, scale=args.scale, repeats=args.repeats,
        seed_base=args.seed,
    )
    result = evaluate_request(request, cache=_resolve_cache(args))
    if result.blank:
        out.error("method %r is not available on %s",
                  args.method, args.machine)
        return 2
    if args.json:
        out.result(result.to_json(), end="")
        return 0
    stats = result.stats
    out.result(f"{args.machine}/{args.workload}/{args.method}: {stats} "
               f"(over {stats.repeats} runs)")
    return 0


def _cmd_fidelity(args: argparse.Namespace, out: Emitter) -> int:
    from repro.api import EvaluateRequest, evaluate_request

    methods = [m for part in args.method
               for m in part.split(",") if m.strip()]
    # One shared harness: traces and references are built once per
    # workload however many methods are scored against them.
    harness = _make_harness(args)
    results = []
    for method in methods:
        request = EvaluateRequest(
            machine=args.machine, workload=args.workload, method=method,
            period=args.period, scale=args.scale, repeats=args.repeats,
            seed_base=args.seed, fidelity=True, fidelity_top_n=args.top_n,
        )
        results.append(evaluate_request(request, harness=harness))
    if args.json:
        # One canonical EvaluateResult document per method, byte-identical
        # to a served POST /v1/evaluate response for the same request.
        for result in results:
            out.result(result.to_json(), end="")
        return 0
    scored = 0
    for result in results:
        label = (f"{args.machine}/{args.workload}/"
                 f"{result.request.method}@{result.request.period}")
        if result.blank:
            out.result(f"{label}: method not available on {args.machine}")
            continue
        scored += 1
        fid = result.fidelity
        out.result(f"{label} ({fid.repeats} runs):")
        for field, title in (("jaccard", f"jaccard@{fid.top_n}"),
                             ("rank", "rank"), ("inline", "inline"),
                             ("layout", "layout")):
            ci = fid.score_ci(field)
            out.result(f"  {title:12s} {ci.mean:.4f} "
                       f"[{ci.lo:.4f}, {ci.hi:.4f}]")
        ci = fid.convergence_ci()
        if ci is None:
            out.result(f"  {'convergence':12s} never "
                       f"(0/{fid.repeats} seeds converged)")
        else:
            out.result(f"  {'convergence':12s} {ci.mean:.1f} samples "
                       f"[{ci.lo:.1f}, {ci.hi:.1f}] "
                       f"({fid.converged_repeats}/{fid.repeats} seeds)")
    return 0 if scored else 2


def _cmd_serve(args: argparse.Namespace, out: Emitter) -> int:
    import signal
    import threading

    from repro.serve import ProfilingServer, ServerConfig

    server = ProfilingServer(ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_size=args.queue_size,
        default_deadline_s=args.deadline,
        table_jobs=args.jobs,
        drain_timeout_s=args.drain_timeout,
        cache=_resolve_cache(args),
    ))
    stop = threading.Event()

    def _on_signal(signum, _frame):
        out.info("received %s, draining", signal.Signals(signum).name)
        stop.set()

    previous = {
        signum: signal.signal(signum, _on_signal)
        for signum in (signal.SIGTERM, signal.SIGINT)
    }
    server.start()
    host, port = server.address
    out.result(f"serving on http://{host}:{port}")
    sys.stdout.flush()
    try:
        # Event.wait with a timeout keeps the main thread responsive to
        # signals on every platform.
        while not stop.wait(timeout=0.2):
            pass
        drained = server.drain()
        server.stop()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    out.result("drained cleanly" if drained
               else "drain timed out with jobs still pending")
    return 0 if drained else 1


def _cmd_recommend(args: argparse.Namespace, out: Emitter) -> int:
    from repro.cpu.metrics import collect_metrics
    from repro.core.recommendations import recommend_method

    harness = _make_harness(args)
    execution = harness.execution(args.machine, args.workload)
    metrics = collect_metrics(execution)
    out.result(f"workload {args.workload} on {args.machine}: "
               f"IPC {metrics.ipc:.2f}, "
               f"{metrics.instructions_per_taken_branch:.1f} "
               f"instr/taken-branch, "
               f"mispredict rate {metrics.mispredict_rate:.1%}, "
               f"{metrics.stall_cycle_fraction:.0%} of cycles stalled\n")
    recommendation = recommend_method(
        execution, metrics=metrics,
        want_maximum_accuracy=not args.no_lbr,
    )
    out.result(recommendation.render())
    return 0


def _cmd_disasm(args: argparse.Namespace, out: Emitter) -> int:
    from repro.isa.disasm import disassemble
    from repro.workloads.registry import get_workload

    program = get_workload(args.workload).build(scale=args.scale)
    out.result(disassemble(program, function=args.function))
    return 0


def _config_summary(args: argparse.Namespace) -> dict[str, object]:
    """The experiment knobs of one invocation, for the manifest."""
    summary: dict[str, object] = {"command": args.command}
    for knob in ("scale", "repeats", "seed", "machine", "workload", "method",
                 "period", "function", "no_lbr", "jobs",
                 "cache_dir", "remote_cache", "cache_max_bytes",
                 "cache_hot_entries", "spec", "out", "resume", "workers"):
        value = getattr(args, knob, None)
        if knob == "cache_hot_entries" and not value:
            continue  # default 0 = no hot tier; keep manifests unchanged
        if value is not None:
            summary[knob] = value
    if hasattr(args, "seed") and hasattr(args, "repeats"):
        summary["seeds"] = list(range(args.seed, args.seed + args.repeats))
    return summary


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="repro-pmu",
        description=(
            "Reproduce 'Establishing a Base of Trust with Performance "
            "Counters for Enterprise Workloads' (USENIX ATC 2015) on a "
            "simulated CPU/PMU substrate."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    pl = sub.add_parser("list", help="list machines, workloads, methods")
    _add_obs_args(pl)
    pl.set_defaults(func=_cmd_list)

    pw = sub.add_parser(
        "workloads",
        help="list registered workloads (name, category, period, description)",
    )
    pw.add_argument("--category", default=None,
                    help="only workloads of this category "
                         "(kernel, app, phase, interleaved, memory)")
    pw.add_argument("--json", action="store_true",
                    help="machine-readable listing")
    _add_obs_args(pw)
    pw.set_defaults(func=_cmd_workloads)

    p1 = sub.add_parser("table1", help="regenerate Table 1 (kernels)")
    _add_harness_args(p1)
    _add_jobs_arg(p1)
    _add_obs_args(p1)
    p1.set_defaults(func=_cmd_table1)

    p2 = sub.add_parser("table2", help="regenerate Table 2 (applications)")
    _add_harness_args(p2)
    _add_jobs_arg(p2)
    _add_obs_args(p2)
    p2.set_defaults(func=_cmd_table2)

    pk = sub.add_parser("cache",
                        help="inspect, trim, or clear the artifact cache")
    pk.add_argument("action", choices=("stats", "trim", "clear"))
    pk.add_argument("--cache-dir", metavar="DIR", default=None,
                    help="cache location (default ~/.cache/repro or "
                         "$REPRO_CACHE_DIR)")
    pk.add_argument("--max-bytes", metavar="SIZE", type=_parse_size,
                    default=None,
                    help="byte budget for 'trim': evict least-recently-"
                         "used entries until the store fits")
    pk.add_argument("--json", action="store_true",
                    help="emit stats as JSON (for scripts and sweep status)")
    _add_obs_args(pk)
    pk.set_defaults(func=_cmd_cache)

    psw = sub.add_parser(
        "sweep",
        help="run/inspect resumable experiment campaigns (repro.sweep)",
    )
    swsub = psw.add_subparsers(dest="sweep_command", required=True)

    pswr = swsub.add_parser(
        "run", help="execute (or --resume) a campaign spec into --out DIR")
    pswr.add_argument("spec", metavar="SPEC.json",
                      help="campaign spec file (see EXPERIMENTS.md "
                           "'Running a campaign')")
    pswr.add_argument("--out", required=True, metavar="DIR",
                      help="campaign directory (journal, reports, manifest)")
    pswr.add_argument("--resume", action="store_true",
                      help="continue an interrupted campaign from its "
                           "journal; journaled cells are never re-evaluated")
    _add_jobs_arg(pswr)
    pswr.add_argument(
        "--cache", action="store_true",
        help="persist cell artifacts in the artifact cache "
             "(~/.cache/repro or $REPRO_CACHE_DIR)",
    )
    pswr.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="artifact cache location (implies --cache)",
    )
    pswr.add_argument(
        "--remote-cache", metavar="URL", default=None,
        help="federate the local cache with a serve daemon's "
             "/v1/cache routes (read-through, write-through)",
    )
    _add_cache_budget_args(pswr)
    pswr.add_argument(
        "--workers", metavar="URL[,URL...]", action="append", default=None,
        help="dispatch cells to this fleet of repro-pmu serve daemons "
             "instead of local processes (repeat or comma-separate)",
    )
    pswr.add_argument(
        "--max-inflight", type=int, default=2, metavar="N",
        help="max concurrent cells per worker (default 2)",
    )
    pswr.add_argument(
        "--cell-deadline", type=float, default=300.0, metavar="SECONDS",
        help="per-cell evaluation deadline on a worker (default 300)",
    )
    pswr.add_argument(
        "--max-attempts", type=int, default=6, metavar="N",
        help="attempts per cell before the campaign fails (default 6)",
    )
    _add_obs_args(pswr)
    pswr.set_defaults(func=_cmd_sweep_run)

    psws = swsub.add_parser(
        "status", help="journal-derived progress of a campaign directory")
    psws.add_argument("out", metavar="DIR", help="campaign directory")
    psws.add_argument("--json", action="store_true",
                      help="machine-readable status")
    psws.add_argument("--cache", action="store_true",
                      help="include artifact-cache stats")
    psws.add_argument("--cache-dir", metavar="DIR", default=None,
                      help="artifact cache location (implies --cache)")
    _add_obs_args(psws)
    psws.set_defaults(func=_cmd_sweep_status)

    pswp = swsub.add_parser(
        "report",
        help="re-render campaign.json/report.md/CSVs from the journal")
    pswp.add_argument("out", metavar="DIR", help="campaign directory")
    _add_obs_args(pswp)
    pswp.set_defaults(func=_cmd_sweep_report)

    p3 = sub.add_parser("table3", help="render Table 3 (method catalogue)")
    _add_obs_args(p3)
    p3.set_defaults(func=_cmd_table3)

    pc = sub.add_parser("claims", help="check the paper's prose claims")
    _add_harness_args(pc)
    _add_obs_args(pc)
    pc.set_defaults(func=_cmd_claims)

    pr = sub.add_parser("run", help="score one machine/workload/method cell")
    _add_harness_args(pr)
    _add_obs_args(pr)
    pr.add_argument("--machine", required=True)
    pr.add_argument("--workload", required=True)
    pr.add_argument("--method", required=True)
    pr.add_argument("--period", type=int, default=None,
                    help="round base period (default: workload's)")
    pr.add_argument("--json", action="store_true",
                    help="emit the canonical EvaluateResult document "
                         "(byte-identical to a served POST /v1/evaluate)")
    pr.set_defaults(func=_cmd_run)

    pf = sub.add_parser(
        "fidelity",
        help="score consumer-outcome fidelity of sampling methods "
             "(top-N ordering, inlining/layout decisions, convergence)",
    )
    _add_harness_args(pf)
    _add_obs_args(pf)
    pf.add_argument("--machine", required=True)
    pf.add_argument("--workload", required=True)
    pf.add_argument("--method", required=True, action="append",
                    metavar="METHOD[,METHOD...]",
                    help="sampling method to score (repeat or "
                         "comma-separate to compare several)")
    pf.add_argument("--period", type=int, default=None,
                    help="round base period (default: workload's)")
    pf.add_argument("--top-n", type=int, default=10, metavar="N",
                    help="hot-block set size for the ordering scores "
                         "(default 10)")
    pf.add_argument("--json", action="store_true",
                    help="emit one canonical EvaluateResult document per "
                         "method (byte-identical to served responses)")
    pf.set_defaults(func=_cmd_fidelity)

    psv = sub.add_parser(
        "serve",
        help="run the profiling-as-a-service HTTP daemon (repro.serve)",
    )
    psv.add_argument("--host", default="127.0.0.1",
                     help="listen address (default 127.0.0.1)")
    psv.add_argument("--port", type=int, default=8787,
                     help="listen port (default 8787; 0 picks an ephemeral "
                          "port, printed on startup)")
    psv.add_argument("--workers", type=int, default=2, metavar="N",
                     help="evaluation worker threads (default 2)")
    psv.add_argument("--queue-size", type=int, default=16, metavar="N",
                     help="max queued jobs before 429 backpressure "
                          "(default 16)")
    psv.add_argument("--deadline", type=float, default=30.0,
                     metavar="SECONDS",
                     help="default per-request deadline for waited requests "
                          "(default 30)")
    psv.add_argument("--drain-timeout", type=float, default=60.0,
                     metavar="SECONDS",
                     help="max seconds to finish in-flight jobs on "
                          "SIGTERM/SIGINT (default 60)")
    _add_jobs_arg(psv)
    psv.add_argument(
        "--cache", action="store_true",
        help="share the persistent artifact cache across requests "
             "(~/.cache/repro or $REPRO_CACHE_DIR)",
    )
    psv.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="artifact cache location (implies --cache)",
    )
    psv.add_argument(
        "--remote-cache", metavar="URL", default=None,
        help="federate this daemon's cache with another daemon's "
             "/v1/cache routes (read-through, write-through)",
    )
    _add_cache_budget_args(psv)
    _add_obs_args(psv)
    psv.set_defaults(func=_cmd_serve)

    pa = sub.add_parser(
        "recommend",
        help="advise a sampling method for a workload (Section 6.3)",
    )
    _add_harness_args(pa)
    _add_obs_args(pa)
    pa.add_argument("--machine", required=True)
    pa.add_argument("--workload", required=True)
    pa.add_argument("--no-lbr", action="store_true",
                    help="exclude LBR methods (no tool support)")
    pa.set_defaults(func=_cmd_recommend)

    pd = sub.add_parser("disasm", help="disassemble a workload's program")
    _add_obs_args(pd)
    pd.add_argument("--workload", required=True)
    pd.add_argument("--function", default=None)
    pd.add_argument("--scale", type=float, default=0.01)
    pd.set_defaults(func=_cmd_disasm)

    # bench import / bench compare / hammer live in repro.bench.cli; parser
    # registration is cheap, the heavy imports stay inside the commands.
    from repro.bench.cli import register_parsers as _register_bench

    _register_bench(sub, _add_obs_args)

    args = parser.parse_args(argv)
    logger = setup_cli_logging(verbose=args.verbose, quiet=args.quiet)
    out = Emitter(logger)

    # Observe the run whenever the user asked for a trace file or a verbose
    # span summary; otherwise the no-op fast path stays in effect.
    writer: JsonlWriter | None = None
    collector: Collector | None = None
    previous: Collector | None = None
    if args.trace or args.verbose:
        if args.trace:
            try:
                writer = JsonlWriter(args.trace)
            except OSError as exc:
                out.error("cannot open trace file %s: %s", args.trace, exc)
                return 2
        if writer is not None:
            writer.run_start(command=["repro-pmu"] + list(argv or sys.argv[1:]),
                             version=__version__)
        collector = Collector(sink=writer)
        previous = install(collector)

    started = time.perf_counter()
    try:
        try:
            return args.func(args, out)
        except (BenchError, RequestError, SweepError,
                FileNotFoundError) as exc:
            out.error("error: %s", exc)
            return 2
    finally:
        if collector is not None:
            install(previous)
            collector.flush_metrics()
            if writer is not None:
                writer.run_end(time.perf_counter() - started)
                writer.close()
                manifest = build_manifest(
                    config=_config_summary(args),
                    collector=collector,
                    command=["repro-pmu"] + list(argv or sys.argv[1:]),
                    extra={"trace": str(args.trace)},
                )
                path = write_manifest(manifest_path_for(args.trace), manifest)
                out.info("trace written to %s (manifest %s)", args.trace, path)
            if args.verbose and collector.span_names():
                print(render_span_tree(collector), file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
