"""The repository benchmark: ``python3 perfbench/run.py --workload NAME``.

Runs one workload of ``BENCHMARK.json`` against the program in ``src/``
and prints, as the last line of stdout, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` makes a
separate traced run and reports the per-layer metrics instead.  A run
whose outputs fail a check prints ``"correct": false`` with no metrics
and exits 1.  See ``perfbench/README.md`` for the workloads, the metric
definitions and the checks.

Usage::

    python3 perfbench/run.py --workload tables --seed 1 --seconds 35 \\
        --trace 0
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import bisect  # noqa: E402
import http.client  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import inputs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for caches, campaign directories and span files; removed
#: at the end of every run.
WORK = ROOT / ".perfbench_work"
ANSWERS = HERE / "answers.json"

#: Every run ends within this many seconds, whatever hangs.
HARD_LIMIT_S = 170.0
PROCESS_START = time.monotonic()
#: Set-up samples per run (``setup_s`` is their median).
SETUP_SAMPLES = 7

# tables: per fresh-process pass
TABLES_WARM = 40
TABLES_LOOKUPS = 200
TABLES_MIN_PASSES = 5                # 1000 lookups for cell_p99_ms
# campaign: one cold campaign per run
CAMPAIGN_WARM = 6
CAMPAIGN_LOOKUPS = 1000
# serve_mix
SERVE_RATE = 30.0                    # req/s, open loop; 40 backlogged (README)
SERVE_CONNECTIONS = 2
SERVE_STREAM_SHARE = 0.96            # of --seconds
SERVE_BURST_SHARE = 0.10             # of --seconds
BURST_WINDOW_S = 0.25                # per-window hit-rate samples
SERVE_SETUP_SAMPLES = 5
SERVE_CHECK_SAMPLE = 6               # served bodies re-derived in-process

#: CPU seconds one :func:`calibrate.unit` takes at the reference speed.
#: Every timing is reported as if the machine ran at that speed.
REFERENCE_UNIT_S = 2.0e-3
#: Calibration samples this close to a timed call still describe it.
SPEED_HALO_S = 0.3


def metric_units(section: str) -> dict[str, str]:
    """``{name: unit}`` of one metric section of ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[section]}


class CheckFailed(Exception):
    """The program ran but could not be measured (crash, bad exit)."""


def time_left(cap: float) -> float:
    """Seconds a wait may take: at most ``cap``, and never past the
    run's :data:`HARD_LIMIT_S`."""
    remaining = HARD_LIMIT_S - (time.monotonic() - PROCESS_START)
    return max(1.0, min(cap, remaining))


def child_env() -> dict[str, str]:
    """Environment of every process the benchmark starts.

    Bytecode goes to a cache inside the work directory, so every checkout
    imports the same way (compiled once per run, as an installed package
    would be) and nothing is written next to the sources.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def load_answers() -> dict:
    if not ANSWERS.is_file():
        return {}
    return json.loads(ANSWERS.read_text(encoding="utf-8"))


def recorded_answer(workload: str, seed: int, outcome: "Outcome"):
    """The recorded answer for ``seed``, or None for an unrecorded seed.

    Seeds are recorded as a range from 0; a missing entry inside that
    range is a failure, not a skipped check.
    """
    table = load_answers().get(workload, {})
    if str(seed) in table:
        return table[str(seed)]
    if table and seed <= max(map(int, table)):
        outcome.add(0, 1, f"no recorded {workload} answer for seed {seed}")
    return None


def median(values):
    return statistics.median(values)


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


class CpuSpeed:
    """The speed of one CPU over time, sampled by :mod:`calibrate`."""

    def __init__(self, cpu: int) -> None:
        self._lock = threading.Lock()
        self._stamps: list[float] = []
        self._speeds: list[float] = []
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "calibrate.py"), str(cpu)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, start_new_session=True,
        )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            stamp, cpu = line.split()
            with self._lock:
                self._stamps.append(float(stamp))
                self._speeds.append(REFERENCE_UNIT_S / float(cpu))

    def started(self) -> bool:
        return bool(self._stamps)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._reader.join(timeout=5.0)
        self.proc.stdout.close()

    def factor(self, start: float, end: float) -> float:
        """Mean speed over ``[start, end]`` (1.0 = reference speed).

        One sample can be disturbed (an interrupt, a cold cache), so a
        short call takes the median of its samples and a long one the mean
        of medians of five consecutive samples.
        """
        with self._lock:
            lo = bisect.bisect_left(self._stamps, start - SPEED_HALO_S)
            hi = bisect.bisect_right(self._stamps, end + SPEED_HALO_S)
            speeds = self._speeds[lo:hi]
        if not speeds:
            raise CheckFailed("no CPU-speed samples (calibrate.py died)")
        if len(speeds) < 10:
            return median(speeds)
        return statistics.fmean(median(speeds[i:i + 5])
                                for i in range(0, len(speeds), 5))


class Speed:
    """The machine's speed over time: one :class:`CpuSpeed` per CPU.

    The CPUs of a shared VM change speed by up to ~60% in phases lasting
    from seconds to minutes, each CPU on its own (README, "Noise"), and
    the program's timings follow.  Each timed call is scaled by the mean
    speed of the CPUs during it, relative to :data:`REFERENCE_UNIT_S`, so
    a run reports what the call would take at the reference speed.  A
    change to the program moves its timings but not the calibration
    unit's, so it still shows in full.
    """

    def __init__(self) -> None:
        self.cpus = [CpuSpeed(cpu) for cpu in sorted(os.sched_getaffinity(0))]
        deadline = time.monotonic() + 10.0
        while not all(cpu.started() for cpu in self.cpus) \
                and time.monotonic() < deadline:
            time.sleep(0.01)

    def stop(self) -> None:
        for cpu in self.cpus:
            cpu.stop()

    def factor(self, start: float, end: float) -> float:
        return statistics.fmean(cpu.factor(start, end) for cpu in self.cpus)


#: Started by :func:`main` for the whole run.
SPEED: Speed | None = None


def scaled(span) -> float:
    """Seconds the call timed by ``(start, end)`` would take at the
    reference speed."""
    start, end = span
    return (end - start) * SPEED.factor(start, end)


class Outcome:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, attempted: int, failed: int = 0, reason: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and reason:
            self.reasons.append(f"{reason} ({failed})")


# -- fresh-process passes (tables, campaign) -------------------------------


def run_child(options: dict) -> dict:
    """Run one :mod:`child` pass; returns its report plus ``setup_s``."""
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(options)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=time_left(HARD_LIMIT_S))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise CheckFailed(f"{options['mode']} pass timed out") from None
    if proc.returncode != 0 or not stdout.strip():
        tail = stderr.strip().splitlines()[-3:]
        raise CheckFailed(f"{options['mode']} pass exited "
                          f"{proc.returncode}: {' | '.join(tail)}")
    report = json.loads(stdout.strip().splitlines()[-1])
    report["setup_s"] = scaled((spawned, report["ready"]))
    return report


def run_passes(mode: str, seed: int, options: dict, until: float,
               min_passes: int, trace: bool, outcome: Outcome,
               setups: list[float]) -> list[dict]:
    """Fresh-process passes until ``until`` (but at least ``min_passes``).

    A bare set-up sample precedes each pass, so set-up samples spread
    over the whole run; each pass's own set-up time is appended too.
    """
    reports: list[dict] = []
    walls: list[float] = []
    while len(reports) < min_passes or (
            time.monotonic() + median(walls) < until):
        work = WORK / f"{mode}-{'traced' if trace else 'plain'}-{len(reports)}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        started = time.monotonic()
        try:
            setups.append(run_child({"mode": "setup"})["setup_s"])
            reports.append(run_child(dict(
                options, mode=mode, seed=seed, work=str(work), trace=trace,
                index=len(reports))))
            setups.append(reports[-1]["setup_s"])
        except CheckFailed as exc:
            outcome.add(1, 1, str(exc))
            break
        finally:
            shutil.rmtree(work, ignore_errors=True)
        walls.append(time.monotonic() - started)
    return reports


def check_passes(workload: str, seed: int, reports: list[dict],
                 outcome: Outcome) -> None:
    """Count each pass's own failures, then check the passes agree with
    each other and with the recorded answer for this seed."""
    for report in reports:
        outcome.add(report["attempted"], report["failed"],
                    f"{workload} outputs differ between cold and warm")
    digests = {report["digest"] for report in reports}
    if len(digests) > 1:
        outcome.add(0, len(reports), f"{workload} passes disagree")
    recorded = recorded_answer(workload, seed, outcome)
    if recorded is not None and digests != {recorded}:
        outcome.add(0, len(reports), f"{workload} differs from the "
                                     f"recorded answer for seed {seed}")


def cold_seconds(reports: list[dict]) -> float:
    return median([scaled(report["cold"]) for report in reports])


def pass_metrics(reports: list[dict], setups: list[float]) -> dict:
    warm = [scaled(span) for report in reports for span in report["warm"]]
    lookups = [scaled(span) for report in reports
               for span in report["lookup"]]
    cells = reports[0]["cells"]
    return {
        "setup_s": median(setups),
        "cold_cells_per_s": median(
            [r["cells"] / scaled(r["cold"]) for r in reports]),
        "warm_cells_per_s": cells / median(warm),
        "cell_p50_ms": 1e3 * median(lookups),
        "cell_p99_ms": 1e3 * nearest_rank(lookups, 0.99),
        "peak_rss_mb": median([r["rss_mb"] for r in reports]),
    }


def batch_workload(workload: str, seed: int, seconds: float, trace: bool,
                   outcome: Outcome) -> tuple[dict, dict]:
    """``tables`` / ``campaign``: returns (end-to-end, per-layer) metrics."""
    start = time.monotonic()
    if workload == "tables":
        options = {"warm": TABLES_WARM, "lookups": TABLES_LOOKUPS}
        min_passes = TABLES_MIN_PASSES
    else:
        options = {"warm": CAMPAIGN_WARM, "lookups": CAMPAIGN_LOOKUPS}
        min_passes = 1
    setups: list[float] = []
    if not trace:
        reports = run_passes(workload, seed, options, start + seconds,
                             min_passes, False, outcome, setups)
        check_passes(workload, seed, reports, outcome)
        if not reports:
            return {}, {}
        while len(setups) < SETUP_SAMPLES:
            setups.append(run_child({"mode": "setup"})["setup_s"])
        if workload == "campaign":
            print(f"campaign_s {cold_seconds(reports):.6g} s")
        return pass_metrics(reports, setups), {}

    # Traced run: plain passes, then traced passes, each on half the time.
    # Lookups only feed latency percentiles, so the traced run skips most.
    options["lookups"] = min(options["lookups"], TABLES_LOOKUPS)
    min_passes = min(min_passes, 2) if workload == "tables" else 1
    plain = run_passes(workload, seed, options, start + seconds / 2,
                       min_passes, False, outcome, setups)
    traced = run_passes(workload, seed, options, start + seconds,
                        min_passes, True, outcome, setups)
    check_passes(workload, seed, plain + traced, outcome)
    if not plain or not traced:
        return {}, {}
    if workload == "tables":
        cold_without_builds = sum(r["cold_build_s"] <= 0 for r in traced)
        outcome.add(0, cold_without_builds,
                    "a cold tables pass built no program (not fresh)")
    spans = merge_spans(r["spans"] for r in traced)
    layers = layer_metrics(spans, len(traced))
    layers["bench.tracing_overhead_pct"] = 100.0 * (
        cold_seconds(traced) / cold_seconds(plain) - 1.0)
    print_engines(spans)
    return {}, layers


# -- spans -> per-layer metrics ---------------------------------------------

#: Per-layer metrics that must be non-zero on each workload's traced run.
LOADED = {
    "tables": ("workloads.build_s", "cpu.trace_s", "cpu.execution_s",
               "instrumentation.reference_s", "pmu.collect_s",
               "core.attribute_s", "core.score_s", "core.harness_self_s",
               "core.cache.open_s", "core.cache.get_s", "core.cache.put_s"),
    "campaign": ("workloads.build_s", "cpu.trace_s", "cpu.execution_s",
                 "instrumentation.reference_s", "pmu.collect_s",
                 "core.attribute_s", "core.score_s", "fidelity.evaluate_s",
                 "core.harness_self_s", "core.cache.open_s",
                 "core.cache.get_s", "core.cache.put_s",
                 "core.parallel.busy_s", "sweep.journal_s",
                 "sweep.report_s"),
    "serve_mix": ("workloads.build_s", "api.request_s", "core.harness_self_s",
                  "core.cache.get_s", "core.cache.put_s",
                  "serve.queue_wait_ms", "serve.job_run_ms",
                  "serve.handler_ms"),
}

#: span name -> per-layer metric (totals divided by the traced passes)
SPAN_SECONDS = {
    "workloads.build": "workloads.build_s", "cpu.trace": "cpu.trace_s",
    "cpu.execution": "cpu.execution_s",
    "instrumentation.reference": "instrumentation.reference_s",
    "pmu.collect": "pmu.collect_s", "core.attribute": "core.attribute_s",
    "core.score": "core.score_s", "fidelity.evaluate": "fidelity.evaluate_s",
    "api.request": "api.request_s", "core.cache.open": "core.cache.open_s",
    "core.cache.get": "core.cache.get_s",
    "core.cache.put": "core.cache.put_s",
    "core.parallel.busy": "core.parallel.busy_s",
    "sweep.journal": "sweep.journal_s", "sweep.report": "sweep.report_s",
}


def merge_spans(snapshots) -> dict:
    merged: dict = {}
    for snap in snapshots:
        for key, table in snap.items():
            target = merged.setdefault(key, {})
            for name, value in table.items():
                target[name] = target.get(name, 0) + value
    return merged


def layer_metrics(spans: dict, passes: int) -> dict:
    """Per-layer metrics from span totals (missing ones report 0)."""
    seconds = spans.get("seconds", {})
    counts = spans.get("counts", {})
    layers = {}
    for span, metric in SPAN_SECONDS.items():
        layers[metric] = seconds.get(span, 0.0) / passes
    layers["core.harness_self_s"] = \
        spans.get("self_seconds", {}).get("core.harness", 0.0) / passes
    layers["workloads.builds"] = \
        spans.get("calls", {}).get("workloads.build", 0) / passes
    instructions = counts.get("cpu.instructions", 0)
    layers["cpu.instructions"] = instructions / passes
    if instructions:
        layers["cpu.ns_per_instr"] = \
            1e9 * seconds.get("cpu.trace", 0.0) / instructions
    layers["pmu.samples"] = counts.get("pmu.samples", 0) / passes
    if counts.get("core.cache.gets"):
        layers["core.cache.hit_ratio"] = \
            counts.get("core.cache.hits", 0) / counts["core.cache.gets"]
    if counts.get("core.parallel.capacity_s"):
        layers["core.parallel.efficiency"] = (
            counts.get("core.parallel.cell_s", 0.0)
            / counts["core.parallel.capacity_s"])
    return layers


def print_engines(spans: dict) -> None:
    engines = ", ".join(f"{key}={value}" for key, value
                        in sorted(spans.get("engines", {}).items()))
    print(f"engines {engines or 'none'}")


# -- serve_mix ---------------------------------------------------------------


def http_call(port: int, method: str, path: str,
              body: bytes | None = None) -> tuple[int, bytes]:
    """One request on its own connection (see README: keep-alive)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def post_cell(port: int, document: dict) -> tuple[int, bytes]:
    body = dict(document, wait=True, deadline_s=inputs.DEADLINE_S)
    return http_call(port, "POST", "/v1/evaluate",
                     json.dumps(body).encode("utf-8"))


def cell_key(document: dict) -> str:
    return json.dumps(document, sort_keys=True)


class Daemon:
    """One ``repro-pmu serve`` process on an ephemeral port."""

    def __init__(self, cache_dir: Path, spans: Path | None = None) -> None:
        serve = ["serve", "--host", "127.0.0.1", "--port", "0",
                 "--workers", "2", "--cache-dir", str(cache_dir)]
        if spans is None:
            command = [sys.executable, "-m", "repro.core.cli", *serve]
        else:
            command = [sys.executable, str(HERE / "daemon.py"), str(spans),
                       *serve]
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, start_new_session=True,
        )
        try:
            self.port = self._read_port()
            self._wait_healthy()
        except BaseException:
            self.kill()
            raise
        self.setup_s = scaled((self.spawned, time.monotonic()))

    def _read_port(self) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    time_left(60.0))
        line = self.proc.stdout.readline() if ready else ""
        if "serving on http://" not in line:
            raise CheckFailed(f"daemon did not start: {line.strip()!r}")
        return int(line.strip().rsplit(":", 1)[1])

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + time_left(60.0)
        while time.monotonic() < deadline:
            try:
                if http_call(self.port, "GET", "/healthz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise CheckFailed("daemon never became healthy")

    def metrics(self) -> dict[str, float]:
        from repro.bench.hammer import parse_prometheus

        status, body = http_call(self.port, "GET", "/metrics")
        if status != 200:
            raise CheckFailed(f"GET /metrics returned {status}")
        return parse_prometheus(body.decode("utf-8"))

    def settled_metrics(self, before: dict, answered: int) -> dict:
        """``/metrics`` once every answered POST has been observed.

        The daemon records a POST's latency after its response is sent,
        so a scrape racing the last response can miss it; wait (briefly)
        for the histogram count to catch up instead of misreporting.
        """
        deadline = time.monotonic() + 5.0
        while True:
            after = self.metrics()
            if handled_posts(before, after) >= answered \
                    or time.monotonic() > deadline:
                return after
            time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise CheckFailed("no VmHWM for the daemon")

    def stop(self) -> int:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=time_left(90.0))
        except subprocess.TimeoutExpired:
            self.kill()
        self.proc.stdout.close()
        return self.proc.returncode

    def kill(self) -> None:
        if self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()


def closed_loop(port: int, documents: list[dict], until: float | None,
                connections: int = SERVE_CONNECTIONS
                ) -> tuple[list[tuple[dict, int, bytes, float, float]],
                           tuple[float, float]]:
    """Send ``documents`` over ``connections`` senders, each waiting for
    its reply before the next; with ``until``, cycle until that time.
    Returns ``(document, status, body, sent time, done time)`` records and
    the ``(start, end)`` of the loop."""
    results: list[tuple[dict, int, bytes, float, float]] = []
    lock = threading.Lock()
    position = [0]

    def sender() -> None:
        while True:
            with lock:
                index = position[0]
                if until is None and index >= len(documents):
                    return
                if until is not None and time.monotonic() >= until:
                    return
                position[0] += 1
            document = documents[index % len(documents)]
            sent = time.monotonic()
            try:
                status, body = post_cell(port, document)
            except OSError:
                status, body = 0, b""
            with lock:
                results.append((document, status, body, sent,
                                time.monotonic()))

    started = time.monotonic()
    threads = [threading.Thread(target=sender) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results, (started, time.monotonic())


def window_rates(done: list[float], span: tuple[float, float]
                 ) -> list[float]:
    """Completions per reference-speed second in consecutive
    :data:`BURST_WINDOW_S` windows of ``span``."""
    start, end = span
    windows = max(1, int((end - start) / BURST_WINDOW_S))
    width = (end - start) / windows
    counts = [0] * windows
    for stamp in done:
        counts[min(windows - 1, int((stamp - start) / width))] += 1
    return [n / scaled((start + i * width, start + (i + 1) * width))
            for i, n in enumerate(counts)]


def open_loop(port: int, stream: list[tuple[bool, dict]], rate: float
              ) -> list[dict]:
    """Send each request at its due time (index / rate) over at most
    :data:`SERVE_CONNECTIONS` connections; time it from that due time."""
    records: list[dict] = [{} for _ in stream]
    lock = threading.Lock()
    position = [0]
    start = time.monotonic() + 0.05

    def sender() -> None:
        while True:
            with lock:
                index = position[0]
                if index >= len(stream):
                    return
                position[0] += 1
            due = start + index / rate
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            sent = time.monotonic()
            try:
                status, body = post_cell(port, stream[index][1])
            except OSError:
                status, body = 0, b""
            done = time.monotonic()
            records[index] = {"due": due, "sent": sent, "done": done,
                              "status": status, "body": body}

    threads = [threading.Thread(target=sender)
               for _ in range(SERVE_CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def handled_posts(before: dict, after: dict) -> int:
    """POSTs the daemon's request-latency histogram saw between scrapes."""
    metric = "repro_serve_request_latency_s_count"
    return int(after.get(metric, 0) - before.get(metric, 0))


def histogram_mean_ms(before: dict, after: dict, metric: str) -> float:
    total = after.get(f"{metric}_sum", 0.0) - before.get(f"{metric}_sum", 0.0)
    n = after.get(f"{metric}_count", 0.0) - before.get(f"{metric}_count", 0.0)
    return 1e3 * total / n if n > 0 else 0.0


def serve_session(seed: int, stream_s: float, burst_s: float,
                  traced: bool, outcome: Outcome) -> dict:
    """Spawn a daemon with an empty cache, fill the hot set one request
    at a time, run the open-loop stream and a closed-loop hit burst, then
    drain it.  Returns the session's numbers."""
    work = WORK / f"serve-{'traced' if traced else 'plain'}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spans_path = work / "spans.json" if traced else None
    daemon = Daemon(work / "cache", spans_path)
    try:
        hot = inputs.hot_cells(seed)
        fill, _ = closed_loop(daemon.port, hot, None, connections=1)
        answers = {cell_key(doc): body for doc, status, body, *_ in fill
                   if status == 200}
        outcome.add(len(fill), len(fill) - len(answers),
                    "hot-set fill request failed")
        stream = inputs.serve_stream(seed,
                                     max(1, round(SERVE_RATE * stream_s)))
        before = daemon.metrics()
        records = open_loop(daemon.port, stream, SERVE_RATE)
        answered = sum(r["status"] != 0 for r in records)
        after = daemon.settled_metrics(before, answered)
        burst, burst_span = closed_loop(daemon.port, hot,
                                        time.monotonic() + burst_s)
        rss_mb = daemon.peak_rss_mb()
    finally:
        returncode = daemon.stop()
    outcome.add(0, returncode != 0, "daemon did not drain cleanly")
    spans = (json.loads(spans_path.read_text(encoding="utf-8"))
             if traced else None)
    shutil.rmtree(work, ignore_errors=True)

    latencies = []
    failed = 0
    for (is_miss, document), record in zip(stream, records):
        ok = record["status"] == 200
        if ok and not is_miss:
            ok = record["body"] == answers.get(cell_key(document))
        failed += not ok
        latencies.append(scaled((record["due"], record["done"]))
                         if ok else math.inf)
    outcome.add(len(stream), failed, "stream response failed or differs "
                                     "from the hot-set answer")
    burst_bad = sum(status != 200 or body != answers.get(cell_key(doc))
                    for doc, status, body, *_ in burst)
    outcome.add(len(burst), burst_bad, "burst response differs")
    outcome.add(0, abs(handled_posts(before, after) - answered),
                "client and daemon request counts disagree")

    sent = [r["done"] - r["sent"] for r in records if r["status"] == 200]
    handler_ms = histogram_mean_ms(before, after,
                                   "repro_serve_request_latency_s")
    return {
        "setup_s": daemon.setup_s,
        "cold_cells_per_s": len(hot) / sum(
            scaled((sent, done)) for *_, sent, done in fill),
        "rss_mb": rss_mb,
        "spans": spans,
        "warm_cells_per_s": median(window_rates(
            [done for *_, done in burst], burst_span)),
        "latencies": latencies,
        "hot_bodies": [answers.get(cell_key(doc), b"") for doc in hot],
        "stream": stream,
        "records": records,
        "layers": {
            "serve.queue_wait_ms": histogram_mean_ms(
                before, after, "repro_serve_queue_wait_s"),
            "serve.job_run_ms": histogram_mean_ms(
                before, after, "repro_serve_job_run_s"),
            "serve.handler_ms": handler_ms,
            "serve.client_overhead_ms":
                1e3 * statistics.fmean(sent) - handler_ms if sent else 0.0,
            "serve.late_ms": 1e3 * statistics.fmean(
                r["sent"] - r["due"] for r in records),
        },
    }


def check_served(seed: int, session: dict, outcome: Outcome) -> None:
    """Served bytes must be what the in-process API answers: a seeded
    sample always; for a recorded seed also the hot set and the first
    :data:`inputs.RECORDED_MISSES` misses, whatever the stream length."""
    from repro import api

    stream, records = session["stream"], session["records"]
    rng = random.Random(f"check-{seed}")
    misses = [i for i, (is_miss, _) in enumerate(stream) if is_miss]
    hits = [i for i, (is_miss, _) in enumerate(stream) if not is_miss]
    half = SERVE_CHECK_SAMPLE // 2
    sample = rng.sample(misses, min(half, len(misses))) + \
        rng.sample(hits, min(half, len(hits)))
    wrong = 0
    for index in sample:
        request = api.EvaluateRequest.from_dict(stream[index][1])
        expected = api.evaluate_request(request).to_json().encode("utf-8")
        wrong += records[index]["body"] != expected
    outcome.add(len(sample), wrong, "served body differs from "
                                    "api.evaluate_request")

    recorded = recorded_answer("serve_mix", seed, outcome)
    if recorded is None:
        return
    outcome.add(0, int(inputs.bodies_digest(session["hot_bodies"])
                       != recorded["hot"]),
                f"served hot set differs from the recorded answer "
                f"for seed {seed}")
    misses = [record["body"] for (is_miss, _), record
              in zip(stream, records) if is_miss]
    wrong = sum(inputs.body_digest(body) != digest
                for body, digest in zip(misses, recorded["misses"]))
    outcome.add(0, wrong, f"served misses differ from the recorded "
                          f"answers for seed {seed}")


def serve_workload(seed: int, seconds: float, trace: bool,
                   outcome: Outcome) -> tuple[dict, dict]:
    sys.path.insert(0, str(SRC))
    if not trace:
        setups = []
        for _ in range(SERVE_SETUP_SAMPLES - 1):
            daemon = Daemon(WORK / "serve-setup" / "cache")
            setups.append(daemon.setup_s)
            outcome.add(0, daemon.stop() != 0, "daemon did not drain cleanly")
            shutil.rmtree(WORK / "serve-setup", ignore_errors=True)
        session = serve_session(seed, SERVE_STREAM_SHARE * seconds,
                                SERVE_BURST_SHARE * seconds, False, outcome)
        setups.append(session["setup_s"])
        check_served(seed, session, outcome)
        latencies = session["latencies"]
        print(f"serve requests {len(latencies)} at {SERVE_RATE:g}/s, "
              f"late {session['layers']['serve.late_ms']:.3f} ms mean")
        return {
            "setup_s": median(setups),
            "cold_cells_per_s": session["cold_cells_per_s"],
            "warm_cells_per_s": session["warm_cells_per_s"],
            "cell_p50_ms": 1e3 * median(latencies),
            "cell_p99_ms": 1e3 * nearest_rank(latencies, 0.99),
            "peak_rss_mb": session["rss_mb"],
        }, {}

    half = seconds / 2
    plain = serve_session(seed, SERVE_STREAM_SHARE * half,
                          SERVE_BURST_SHARE * half, False, outcome)
    traced = serve_session(seed, SERVE_STREAM_SHARE * half,
                           SERVE_BURST_SHARE * half, True, outcome)
    check_served(seed, traced, outcome)
    layers = layer_metrics(traced["spans"], 1)
    layers.update(traced["layers"])
    # Both sessions serve the same stream; compare the daemon's own job
    # time, which excludes the client-side queueing that dominates latency.
    layers["bench.tracing_overhead_pct"] = 100.0 * (
        traced["layers"]["serve.job_run_ms"]
        / plain["layers"]["serve.job_run_ms"] - 1.0)
    print_engines(traced["spans"])
    return {}, layers


# -- entry point -------------------------------------------------------------

WORKLOADS = ("tables", "campaign", "serve_mix")


def measure(workload: str, seed: int, seconds: float, trace: bool
            ) -> tuple[Outcome, dict]:
    outcome = Outcome()
    try:
        if workload == "serve_mix":
            e2e, layers = serve_workload(seed, seconds, trace, outcome)
        else:
            e2e, layers = batch_workload(workload, seed, seconds, trace,
                                         outcome)
    except CheckFailed as exc:
        outcome.add(1, 1, str(exc))
        e2e, layers = {}, {}
    units = metric_units("per_layer" if trace else "end_to_end")
    if trace:
        idle = [name for name in LOADED[workload] if not layers.get(name)]
        outcome.add(0, len(idle), f"layers never fired: {', '.join(idle)}")
        values = {name: layers.get(name, 0.0) for name in units}
    else:
        values = {name: e2e[name] for name in units} if e2e else {}
    return outcome, {name: {"value": value, "unit": units[name]}
                     for name, value in values.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is "
              f"missing (run from a full checkout)", file=sys.stderr)
        return 2

    global SPEED
    shutil.rmtree(WORK, ignore_errors=True)
    SPEED = Speed()
    try:
        outcome, metrics = measure(args.workload, args.seed, args.seconds,
                                   bool(args.trace))
    finally:
        SPEED.stop()
        shutil.rmtree(WORK, ignore_errors=True)
    correct = outcome.failed == 0 and outcome.attempted > 0
    if outcome.attempted == 0:
        outcome.add(1, 1, "nothing was measured")
    for reason in outcome.reasons:
        print(f"FAILED: {reason}")
    print(f"error_rate {outcome.failed / outcome.attempted:.6g} ratio "
          f"({outcome.failed} of {outcome.attempted} operations)")
    if correct:
        for name, metric in metrics.items():
            print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics if correct else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
