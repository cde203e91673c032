"""bench import: perfbench runs in, one guarded document out."""

import json
from pathlib import Path

import pytest

from repro.bench.compare import compare_bench
from repro.bench.importer import import_runs
from repro.core.cli import main
from repro.errors import BenchError

ROOT = Path(__file__).resolve().parents[2]
SPEC_PATH = ROOT / "BENCHMARK.json"
SPEC = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def _capture(tmp_path, name, scale=1.0, correct=True, failed=0,
             units=END_TO_END, drop=()):
    """One perfbench stdout capture: progress lines, then the result line
    (metric ``i`` is worth ``scale * (i + 1)``)."""
    metrics = {metric: {"value": scale * (i + 1), "unit": unit}
               for i, (metric, unit) in enumerate(units.items())
               if metric not in drop}
    path = tmp_path / f"{name}.out"
    path.write_text(
        "error_rate 0 ratio (0 of 12 operations)\n"
        + json.dumps({"correct": correct, "attempted": 12, "failed": failed,
                      "metrics": metrics if correct else {}}) + "\n")
    return path


def test_five_runs_import_as_medians_with_per_run_samples(tmp_path):
    scales = (1.0, 3.0, 2.0, 5.0, 4.0)
    runs = [_capture(tmp_path, f"run{i}", scale)
            for i, scale in enumerate(scales)]
    result = import_runs(runs, "tables", spec_path=SPEC_PATH)
    assert result.ok
    assert (result.area, result.kind) == ("tables", "bench")
    assert [m.name for m in result.metrics] == list(END_TO_END)
    for i, metric in enumerate(result.metrics):
        assert metric.value == 3.0 * (i + 1)
        assert metric.samples == tuple(s * (i + 1) for s in scales)
        assert metric.unit == END_TO_END[metric.name]
    assert {m.name: m.direction for m in result.metrics} == {
        m["name"]: m["better"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("bad, guard", [
    (dict(correct=False), "correct"),
    (dict(failed=2), "no_failed_ops"),
    (dict(drop=("cell_p99_ms",)), "present"),
], ids=["incorrect", "failed_ops", "missing_metric"])
def test_untrustworthy_run_gives_an_invalid_document_compare_refuses(
        tmp_path, monkeypatch, capsys, bad, guard):
    monkeypatch.chdir(ROOT)            # where bench import finds the spec
    good = [str(_capture(tmp_path, f"good{i}")) for i in range(3)]
    worse = good[:2] + [str(_capture(tmp_path, "bad", **bad))]
    base, head = tmp_path / "base", tmp_path / "head"
    assert main(["bench", "import", *good, "--workload", "tables",
                 "--out", str(base), "-q"]) == 0
    assert main(["bench", "import", *worse, "--workload", "tables",
                 "--out", str(head), "-q"]) == 1
    document = json.loads((head / "BENCH_tables.json").read_text())
    assert document["status"] == "invalid"
    tripped = {g["name"] for m in document["metrics"] for g in m["guards"]
               if not g["passed"]}
    assert guard in tripped
    assert main(["bench", "compare", str(base / "BENCH_tables.json"),
                 str(head / "BENCH_tables.json"), "-q"]) == 1
    assert "candidate is invalid" in capsys.readouterr().out


def test_traced_run_imports_as_the_layers_area(tmp_path):
    traced = import_runs([_capture(tmp_path, "traced", units=PER_LAYER)],
                         "campaign", spec_path=SPEC_PATH)
    assert traced.ok and traced.area == "campaign_layers"
    assert [m.name for m in traced.metrics] == list(PER_LAYER)
    plain = import_runs([_capture(tmp_path, "plain")], "campaign",
                        spec_path=SPEC_PATH)
    with pytest.raises(BenchError, match="different areas"):
        compare_bench(plain, traced)


def test_crashed_capture_and_usage_errors(tmp_path):
    crashed = tmp_path / "crashed.out"
    crashed.write_text("Traceback (most recent call last):\n  boom\n")
    result = import_runs([crashed], "serve_mix", spec_path=SPEC_PATH)
    assert result.status == "invalid" and result.area == "serve_mix"
    with pytest.raises(BenchError, match="unknown workload"):
        import_runs([crashed], "nope", spec_path=SPEC_PATH)
    with pytest.raises(BenchError, match="no such perfbench capture"):
        import_runs([tmp_path / "missing.out"], "tables", spec_path=SPEC_PATH)
    with pytest.raises(BenchError, match="no benchmark declaration"):
        import_runs([crashed], "tables",
                    spec_path=tmp_path / "BENCHMARK.json")
