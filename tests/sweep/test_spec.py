"""Unit tests for campaign specifications and their expansion."""

import sys
import threading

import pytest

from repro.errors import SweepError
from repro.sweep import CampaignSpec, log_spaced_periods

from tests.sweep.conftest import make_spec


class TestLogSpacedPeriods:
    def test_endpoints_are_exact(self):
        periods = log_spaced_periods(500, 4000, 7)
        assert periods[0] == 500
        assert periods[-1] == 4000
        assert len(periods) == 7

    def test_values_are_geometric_and_increasing(self):
        periods = log_spaced_periods(100, 100_000, 4)
        assert list(periods) == sorted(periods)
        ratios = [periods[i + 1] / periods[i] for i in range(len(periods) - 1)]
        assert max(ratios) / min(ratios) < 1.01

    def test_tight_range_deduplicates(self):
        periods = log_spaced_periods(10, 12, 9)
        assert len(periods) == len(set(periods))
        assert periods[0] == 10 and periods[-1] == 12

    def test_single_count(self):
        assert log_spaced_periods(500, 500, 1) == (500,)
        assert log_spaced_periods(500, 900, 1) == (500, 900)

    @pytest.mark.parametrize("args", [(1, 10, 3), (100, 50, 3), (10, 20, 0)])
    def test_invalid_ranges_raise(self, args):
        with pytest.raises(SweepError):
            log_spaced_periods(*args)


class TestCampaignSpec:
    def test_expand_order_is_workload_major(self):
        spec = make_spec(workloads=("callchain", "latency_biased"))
        points = spec.expand()
        assert len(points) == spec.num_points
        # All of the first workload's points precede the second's.
        workloads = [p.cell.workload for p in points]
        switch = workloads.index("latency_biased")
        assert set(workloads[:switch]) == {"callchain"}
        assert set(workloads[switch:]) == {"latency_biased"}
        # Within a workload: period-major, then method, then repeats.
        assert [
            (p.cell.period, p.cell.method, p.repeats) for p in points[:8]
        ] == [
            (500, "classic", 1), (500, "classic", 2),
            (500, "precise", 1), (500, "precise", 2),
            (1000, "classic", 1), (1000, "classic", 2),
            (1000, "precise", 1), (1000, "precise", 2),
        ]

    def test_point_ids_are_unique(self):
        points = make_spec().expand()
        assert len({p.point_id for p in points}) == len(points)

    def test_periods_none_uses_workload_default(self):
        from repro.workloads.registry import get_workload

        spec = make_spec(periods=None)
        default = get_workload("callchain").default_period
        assert spec.periods_for("callchain") == (default,)
        assert all(p.cell.period == default for p in spec.expand())

    def test_dict_round_trip(self):
        spec = make_spec()
        clone = CampaignSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.digest() == spec.digest()

    def test_json_round_trip_via_file(self, tmp_path):
        spec = make_spec()
        path = spec.save(tmp_path / "spec.json")
        assert CampaignSpec.load(path) == spec

    def test_concurrent_saves_of_one_path_never_collide(self, tmp_path):
        """Writers of one document each publish through a private temp
        file: none fails, the survivor is whole, and no temp file stays."""
        spec = make_spec()
        path = tmp_path / "spec.json"
        errors: list[Exception] = []

        def writer() -> None:
            try:
                for _ in range(100):
                    spec.save(path)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert CampaignSpec.load(path) == spec
        assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]

    def test_from_dict_log_range_period_axis(self):
        document = make_spec().to_dict()
        document["periods"] = {
            "log_range": {"start": 500, "stop": 4000, "count": 4}
        }
        spec = CampaignSpec.from_dict(document)
        assert spec.periods == log_spaced_periods(500, 4000, 4)

    def test_from_dict_bad_period_dict_raises(self):
        document = make_spec().to_dict()
        document["periods"] = {"linear": [1, 2]}
        with pytest.raises(SweepError, match="log_range"):
            CampaignSpec.from_dict(document)

    def test_from_dict_unknown_version_raises(self):
        document = make_spec().to_dict()
        document["version"] = 99
        with pytest.raises(SweepError, match="version"):
            CampaignSpec.from_dict(document)

    def test_digest_changes_with_any_axis(self):
        base = make_spec()
        assert base.digest() == make_spec().digest()
        for changes in (
            {"name": "other"},
            {"periods": (500, 2000)},
            {"seed_counts": (3,)},
            {"seed_base": 7},
            {"scale": 0.1},
            {"methods": ("classic",)},
        ):
            assert base.with_(**changes).digest() != base.digest()

    def test_validation_rejects_bad_axes(self):
        with pytest.raises(SweepError, match="unknown methods"):
            make_spec(methods=("classic", "nope"))
        with pytest.raises(SweepError, match="empty"):
            make_spec(workloads=())
        with pytest.raises(SweepError, match="periods"):
            make_spec(periods=(1,))
        with pytest.raises(SweepError, match="seed_counts"):
            make_spec(seed_counts=(0,))
        with pytest.raises(SweepError, match="scale"):
            make_spec(scale=0.0)

    def test_validation_rejects_unknown_workload_and_machine(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            make_spec(workloads=("nope",))
        with pytest.raises(ReproError):
            make_spec(machines=("i486",))

    def test_lists_normalize_to_tuples(self):
        spec = make_spec(workloads=["callchain"], periods=[500],
                         seed_counts=[2])
        assert spec.workloads == ("callchain",)
        assert spec.periods == (500,)
        assert spec.seed_counts == (2,)
