"""The bench/hammer CLI surface: artifacts, exit codes, JSON output."""

import json

from repro.bench.result import BenchResult, Metric, save_bench
from repro.core.cli import main


def _write(tmp_path, name, value):
    result = BenchResult(
        area="table1", kind="bench",
        metrics=(Metric(name="cold.cells_per_s", value=value,
                        unit="cells/s"),),
    )
    return save_bench(result, tmp_path / name)


def test_bench_compare_pass_and_regression_exit_codes(tmp_path, capsys):
    baseline = _write(tmp_path, "base.json", 100.0)
    good = _write(tmp_path, "good.json", 98.0)
    bad = _write(tmp_path, "bad.json", 50.0)

    assert main(["bench", "compare", str(baseline), str(good),
                 "--max-regression-pct", "10", "-q"]) == 0
    assert "PASS" in capsys.readouterr().out

    assert main(["bench", "compare", str(baseline), str(bad),
                 "--max-regression-pct", "10", "-q"]) == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_bench_compare_json_and_missing_file(tmp_path, capsys):
    baseline = _write(tmp_path, "base.json", 100.0)
    assert main(["bench", "compare", str(baseline), str(baseline),
                 "--json", "-q"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["passed"] is True
    assert document["deltas"][0]["change_pct"] == 0.0
    # Usage errors (missing document) exit 2, distinct from gate failure.
    assert main(["bench", "compare", str(baseline),
                 str(tmp_path / "nope.json"), "-q"]) == 2


def test_hammer_cli_against_live_daemon(tmp_path, capsys):
    from repro.serve import ProfilingServer, ServerConfig

    server = ProfilingServer(ServerConfig(port=0, workers=2, queue_size=32))
    server.start()
    try:
        code = main(["hammer", server.url, "--qps", "10",
                     "--duration", "1", "--scale", "0.01",
                     "--min-elapsed", "0.01", "--out", str(tmp_path), "-q"])
    finally:
        server.drain(timeout=10.0)
        server.stop()
    assert code == 0
    document = json.loads((tmp_path / "BENCH_serve.json").read_text())
    assert document["kind"] == "hammer"
    assert document["status"] == "ok"
    assert document["details"]["outcomes"]["ok"] == 10


def test_hammer_cli_unreachable_daemon_exits_one(capsys):
    code = main(["hammer", "http://127.0.0.1:9", "--qps", "5",
                 "--duration", "0.5", "-q"])
    assert code == 1
    assert "unreachable" in capsys.readouterr().out
