"""Tests for the parallel cell scheduler (serial/parallel equivalence)."""

import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.errors import EvaluationAborted
from repro.obs import collecting
from repro.core.cache import ArtifactCache
from repro.core.experiment import CellSpec, ExperimentConfig, Harness
from repro.core.parallel import (
    evaluate_cells,
    plan_cells,
    plan_slices,
)
from repro.core.tables import build_table1

CONFIG = ExperimentConfig(scale=0.01, repeats=1)
WORKLOADS = ("latency_biased", "callchain")
METHODS = ("classic", "precise")


def test_cellspec_is_picklable_and_hashable():
    spec = CellSpec("ivybridge", "mcf", "lbr", 500)
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec
    assert hash(clone) == hash(spec)
    assert str(spec) == "ivybridge/mcf/lbr@500"


def test_cellspec_resolved_fills_period_only_once():
    spec = CellSpec("ivybridge", "mcf", "lbr")
    resolved = spec.resolved(500)
    assert resolved.period == 500
    assert resolved.resolved(500) is resolved


def test_plan_cells_matches_serial_loop_order():
    specs = plan_cells(CONFIG, WORKLOADS, METHODS)
    assert len(specs) == len(WORKLOADS) * len(CONFIG.machines) * len(METHODS)
    assert specs[0] == CellSpec("magnycours", "latency_biased", "classic",
                                2000)
    # Workload-major, then machine, then method — the serial loop order.
    assert [s.workload for s in specs[:6]] == ["latency_biased"] * 6
    assert all(s.period == 2000 for s in specs)


def test_plan_slices_preserves_order():
    specs = plan_cells(CONFIG, WORKLOADS, METHODS)
    plan = plan_slices(specs)
    assert [pieces[0][0].workload for pieces in plan] == list(WORKLOADS)
    for pieces in plan:
        # One slice per machine, in config order, each one (workload,
        # machine) pair with its methods in spec order.
        assert [piece[0].machine for piece in pieces] == list(CONFIG.machines)
        for piece in pieces:
            assert len({(s.workload, s.machine) for s in piece}) == 1
            assert [s.method for s in piece] == list(METHODS)
    flat = [spec for pieces in plan for piece in pieces for spec in piece]
    assert flat == specs


def test_parallel_equals_serial_cells():
    specs = plan_cells(CONFIG, WORKLOADS, METHODS)
    serial = evaluate_cells(CONFIG, specs, jobs=1)
    with collecting() as col:
        parallel = evaluate_cells(CONFIG, specs, jobs=2)
    assert parallel == serial
    counters = col.metrics.counters()
    assert counters["parallel.cells_dispatched"] == len(specs)
    # Worker-side pipeline counters merged back into the parent registry.
    assert counters["samples.collected"] > 0
    assert counters["harness.cells_evaluated"] == len(specs)


def test_parallel_merges_worker_spans_into_parent():
    specs = plan_cells(CONFIG, ("latency_biased",), ("classic",))
    with collecting() as col:
        evaluate_cells(CONFIG, specs, jobs=2)
    names = col.span_names()
    # Pipeline spans recorded inside workers reach the parent collector.
    assert {"cell", "interpret", "sample", "attribute", "score"} <= names
    # Remapped seqs stay unique, and parent links stay within the record set.
    seqs = [record.seq for record in col.spans]
    assert len(seqs) == len(set(seqs))
    known = set(seqs)
    assert all(record.parent is None or record.parent in known
               for record in col.spans)


def test_parallel_table_build_is_bit_identical():
    serial = build_table1(Harness(CONFIG), methods=METHODS,
                          workloads=WORKLOADS, jobs=1)
    parallel = build_table1(Harness(CONFIG), methods=METHODS,
                            workloads=WORKLOADS, jobs=2)
    assert parallel.cells == serial.cells
    assert list(parallel.cells) == list(serial.cells)   # same key order too
    assert parallel.render() == serial.render()


def test_warm_cache_parallel_run_evaluates_zero_cells(tmp_path):
    """The acceptance scenario: 2 workloads × 2 methods, --jobs 2.

    The first build populates the cache; the second evaluates nothing
    (all cells come back as ``cache.hits``) yet is bit-identical.
    """
    cache = ArtifactCache(tmp_path)
    cold = build_table1(Harness(CONFIG, cache=cache), methods=METHODS,
                        workloads=WORKLOADS, jobs=2)
    with collecting() as col:
        warm = build_table1(Harness(CONFIG, cache=ArtifactCache(tmp_path)),
                            methods=METHODS, workloads=WORKLOADS, jobs=2)
    assert warm.cells == cold.cells
    counters = col.metrics.counters()
    assert counters.get("harness.cells_evaluated", 0) == 0
    evaluable = sum(1 for stats in cold.cells.values() if stats is not None)
    assert counters["cache.hits"] == evaluable


def test_blank_cells_survive_the_parallel_path():
    specs = [CellSpec("magnycours", "latency_biased", "lbr", 2000),
             CellSpec("westmere", "latency_biased", "lbr", 2000)]
    results = evaluate_cells(CONFIG, specs, jobs=2)
    assert results[specs[0]] == (None, None)    # no LBR on Magny-Cours
    assert results[specs[1]].stats is not None


def test_jobs_capped_by_slice_count():
    # More jobs than slices must still work (pool sized down).
    specs = plan_cells(CONFIG, ("latency_biased",), ("classic",))
    results = evaluate_cells(CONFIG, specs, jobs=8)
    assert len(results) == len(specs)


@pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
def test_slices_hand_off_the_trace(tmp_path, cached):
    """2 workloads x 3 machines at jobs=2: serial results, and each
    program interpreted once — by its first slice — with or without a
    cache."""
    specs = plan_cells(CONFIG, WORKLOADS, METHODS)
    serial = evaluate_cells(CONFIG, specs, jobs=1)
    cache = ArtifactCache(tmp_path) if cached else None
    with collecting() as col:
        sliced = evaluate_cells(CONFIG, specs, jobs=2, cache=cache)
    assert sliced == serial
    interpreted = [record for record in col.spans
                   if record.name == "interpret"]
    assert len(interpreted) == len(WORKLOADS)
    assert col.metrics.counter("harness.cells_evaluated") == len(specs)


def test_abort_after_first_slice_submits_no_follow_up(monkeypatch):
    submitted = []

    class RecordingPool(ProcessPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            submitted.append(args[2])
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr("repro.core.parallel.ProcessPoolExecutor",
                        RecordingPool)
    specs = plan_cells(CONFIG, WORKLOADS, METHODS)
    polls = []

    def abort():
        polls.append(len(submitted))
        return True

    with pytest.raises(EvaluationAborted):
        evaluate_cells(CONFIG, specs, jobs=2, abort=abort)
    # Polled once, at the first completion, which stopped the dispatch
    # before that slice's follow-ups went out.
    assert polls == [len(WORKLOADS)]
    assert submitted == [pieces[0] for pieces in plan_slices(specs)]
