"""The perf-regression sentinel: robust baselines, classification,
trajectory checks, and the obs_check.json artifact."""

import json
import math
import platform

import pytest

import repro
from repro.errors import ReproError
from repro.harness.runner import KernelReport, run_metadata
from repro.obs import baseline
from repro.obs.baseline import (
    SeriesSpec,
    check_reports,
    check_trajectories,
    classify,
    overall_status,
    render_checks,
    robust_center,
    write_check,
)

LOWER = SeriesSpec("t.latency", "BENCH_t.json", "latency", "lower",
                   warn_ratio=1.3, regress_ratio=1.8)
HIGHER = SeriesSpec("t.rate", "BENCH_t.json", "rate", "higher",
                    warn_ratio=1.3, regress_ratio=2.0)

#: The seeded regression: hit rates halved, simulated work doubled.
DEGRADE = {"served_without_execution_rate": 0.5,
           "warm_cache_hit_rate": 0.5,
           "replay_instructions": 2.0}


class TestRobustCenter:
    def test_median_and_mad(self):
        median, mad = robust_center([1.0, 2.0, 3.0, 4.0, 100.0])
        assert median == 3.0
        assert mad == 1.0  # deviations 2,1,0,1,97 -> median 1

    def test_single_outlier_cannot_poison_the_baseline(self):
        clean, _ = robust_center([10.0] * 7)
        dirty, _ = robust_center([10.0] * 7 + [1000.0])
        assert dirty == clean

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            robust_center([])


class TestClassify:
    def test_no_history(self):
        check = classify([], 5.0, LOWER)
        assert check.status == "no-history"
        assert overall_status([check]) == "ok"

    def test_lower_better_within_threshold_ok(self):
        check = classify([10.0, 10.0, 10.0], 11.0, LOWER)
        assert check.status == "ok"
        assert check.baseline == 10.0
        assert check.ratio == pytest.approx(1.1)

    def test_lower_better_warns_then_regresses(self):
        history = [10.0, 10.0, 10.0]
        assert classify(history, 14.0, LOWER).status == "warn"
        assert classify(history, 20.0, LOWER).status == "regress"

    def test_doubled_latency_is_a_regression(self):
        # The acceptance scenario: regress_ratio 1.8 < 2.0, so a 2x
        # latency bump on a stable series must fire.
        check = classify([10.0, 10.1, 9.9, 10.0], 20.0, LOWER)
        assert check.status == "regress"
        assert "grew to 2.00x" in check.note

    def test_higher_better_shrinkage_regresses(self):
        history = [100.0, 100.0, 100.0]
        assert classify(history, 95.0, HIGHER).status == "ok"
        assert classify(history, 70.0, HIGHER).status == "warn"
        assert classify(history, 25.0, HIGHER).status == "regress"
        note = classify(history, 25.0, HIGHER).note
        assert "fell to 0.25x" in note

    def test_mad_guard_spares_noisy_series(self):
        # Historical jitter is wide (MAD 4): a value only 1.4x the
        # median is still inside median + 3*MAD, so no alarm.
        noisy = [10.0, 6.0, 14.0, 8.0, 12.0, 5.0, 15.0]
        median, mad = robust_center(noisy)
        value = median * 1.4
        assert value < median + baseline.MAD_WARN * mad
        assert classify(noisy, value, LOWER).status == "ok"

    def test_unknown_direction_rejected(self):
        bad = SeriesSpec("t.x", "f.json", "x", "sideways")
        with pytest.raises(ReproError):
            classify([1.0], 1.0, bad)

    def test_zero_baseline_lower_better_is_inf_ratio(self):
        check = classify([0.0, 0.0], 1.0, LOWER)
        assert check.ratio == math.inf
        assert check.status == "regress"


def _write_trajectory(path, field, values):
    path.write_text(json.dumps(
        {"bench": "t", "entries": [{field: v} for v in values]}))


class TestCheckTrajectories:
    def test_missing_file_reports_missing_not_failure(self, tmp_path):
        checks = check_trajectories(root=tmp_path, specs=[LOWER])
        assert [c.status for c in checks] == ["missing"]
        assert overall_status(checks) == "ok"

    def test_single_entry_is_no_history(self, tmp_path):
        _write_trajectory(tmp_path / "BENCH_t.json", "latency", [10.0])
        checks = check_trajectories(root=tmp_path, specs=[LOWER])
        assert [c.status for c in checks] == ["no-history"]

    def test_window_trims_old_history(self, tmp_path):
        # Ancient slowness outside the window must not inflate the
        # baseline: with window=3 only the recent fast entries count.
        values = [100.0] * 5 + [10.0, 10.0, 10.0, 20.0]
        _write_trajectory(tmp_path / "BENCH_t.json", "latency", values)
        wide = check_trajectories(root=tmp_path, specs=[LOWER], window=8)[0]
        tight = check_trajectories(root=tmp_path, specs=[LOWER], window=3)[0]
        assert wide.status == "ok"          # baseline dragged up to 100
        assert tight.status == "regress"    # honest recent baseline 10

    def test_committed_trajectories_pass(self):
        # `repro obs check` with no arguments must exit 0 on the
        # repo's own committed trajectory files.
        checks = check_trajectories()
        assert checks, "expected tracked series"
        assert overall_status(checks) != "regress"

    def test_degraded_copy_regresses(self, tmp_path):
        # The CI smoke scenario: clone the committed trajectories,
        # append an entry with halved hit rates and doubled simulated
        # work, and the sentinel must fire on exactly those series.
        for name in ("BENCH_serve_load.json", "BENCH_sweep.json",
                     "BENCH_trace_throughput.json"):
            source = baseline.repo_root() / name
            payload = json.loads(source.read_text())
            entry = dict(payload["entries"][-1])
            for field, factor in DEGRADE.items():
                if field in entry:
                    entry[field] = entry[field] * factor
            payload["entries"] = payload["entries"] + [entry]
            (tmp_path / name).write_text(json.dumps(payload))
        checks = check_trajectories(root=tmp_path)
        assert overall_status(checks) == "regress"
        regressed = {c.series for c in checks if c.status == "regress"}
        assert regressed == {"serve_load.served_without_execution_rate",
                             "sweep.warm_cache_hit_rate",
                             "trace_throughput.replay_instructions"}

    def test_newest_entry_without_the_field_is_missing(self, tmp_path):
        # An older entry must never be judged as if it were the newest.
        entries = [{"latency": 10.0}] * 3 + [
            {"other": 1.0, "version": "9.9.9", "git_sha": "abc1234"}]
        (tmp_path / "BENCH_t.json").write_text(
            json.dumps({"bench": "t", "entries": entries}))
        (check,) = check_trajectories(root=tmp_path, specs=[LOWER])
        assert check.status == "missing"
        assert check.value is None
        assert "9.9.9" in check.note and "abc1234" in check.note

    def test_history_skips_entries_without_the_field(self, tmp_path):
        entries = [{"latency": 10.0}, {"other": 1.0}, {"latency": 20.0}]
        (tmp_path / "BENCH_t.json").write_text(
            json.dumps({"bench": "t", "entries": entries}))
        (check,) = check_trajectories(root=tmp_path, specs=[LOWER])
        assert (check.value, check.baseline, check.window) == (20.0, 10.0, 1)
        assert check.status == "regress"

    @pytest.mark.parametrize("spec", baseline.TRACKED_SERIES,
                             ids=lambda spec: spec.name)
    def test_newest_committed_entry_carries_every_tracked_field(self, spec):
        # A bench that stops writing a tracked field fails here rather
        # than reading `missing` (which counts as ok) in the sentinel.
        name = spec.file.removeprefix("BENCH_").removesuffix(".json")
        entries = baseline.trajectory_entries(name)
        assert entries, f"{spec.file} has no committed entries"
        assert isinstance(entries[-1].get(spec.field), (int, float)), (
            f"newest entry of {spec.file} lacks {spec.field!r}")


class TestAppendEntry:
    def test_appends_stamped_entries_the_sentinel_reads(self, tmp_path):
        assert baseline.trajectory_entries("t", root=tmp_path) == []
        assert baseline.append_entry("t", {"latency": 10.0},
                                     kind="measured", root=tmp_path) == []
        prior = baseline.append_entry("t", {"latency": 30.0},
                                      kind="modelled", root=tmp_path)
        payload = json.loads((tmp_path / "BENCH_t.json").read_text())
        assert sorted(payload) == ["bench", "entries"]
        assert payload["bench"] == "t"
        entries = payload["entries"]
        assert [entry["latency"] for entry in entries] == [10.0, 30.0]
        assert prior == entries[:1]
        for entry, kind in zip(entries, ("measured", "modelled")):
            assert entry["version"] == repro.__version__
            assert entry["git_sha"] == run_metadata()["git_sha"]
            assert entry["host"] == platform.machine()
            assert entry["kind"] == kind
        assert baseline.trajectory_entries("t", root=tmp_path) == entries
        (check,) = check_trajectories(root=tmp_path, specs=[LOWER])
        assert (check.value, check.baseline) == (30.0, 10.0)
        assert check.status == "regress"

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="kind"):
            baseline.append_entry("t", {"latency": 1.0}, kind="guessed",
                                  root=tmp_path)
        assert not (tmp_path / "BENCH_t.json").exists()


def _report(kernel, wall, ipc=None, error=None):
    return KernelReport(kernel=kernel, wall_seconds=wall, ipc=ipc,
                        error=error)


class TestCheckReports:
    def test_wall_and_ipc_compared(self):
        checks = check_reports(
            {"tc": _report("tc", 2.0, ipc=1.0)},
            {"tc": _report("tc", 1.0, ipc=2.0)},
        )
        statuses = {c.series: c.status for c in checks}
        assert statuses["report.tc.wall_seconds"] == "regress"
        assert statuses["report.tc.ipc"] == "regress"

    def test_matching_reports_ok(self):
        checks = check_reports(
            {"tc": _report("tc", 1.02)}, {"tc": _report("tc", 1.0)})
        assert overall_status(checks) == "ok"

    def test_errored_and_absent_kernels_marked_missing(self):
        checks = check_reports(
            {"tc": _report("tc", 1.0, error="boom")},
            {"tc": _report("tc", 1.0), "gbwt": _report("gbwt", 1.0)},
        )
        assert sorted(c.status for c in checks) == ["missing", "missing"]


class TestArtifact:
    def test_write_check_round_trips(self, tmp_path):
        checks = [classify([10.0, 10.0], 20.0, LOWER),
                  classify([], 1.0, HIGHER)]
        out = write_check(checks, tmp_path / "obs_check.json",
                          metadata={"git": "abc"})
        payload = json.loads(out.read_text())
        assert payload["schema"] == baseline.CHECK_SCHEMA
        assert payload["status"] == "regress"
        assert payload["metadata"] == {"git": "abc"}
        assert len(payload["checks"]) == 2
        assert payload["checks"][0]["series"] == "t.latency"

    def test_non_finite_values_serialized_as_null(self, tmp_path):
        check = classify([0.0, 0.0], 1.0, LOWER)
        out = write_check([check], tmp_path / "c.json")
        payload = json.loads(out.read_text())  # must be strict JSON
        assert payload["checks"][0]["ratio"] is None

    def test_render_ends_with_overall_line(self):
        rendered = render_checks([classify([10.0, 10.0], 10.5, LOWER)])
        assert rendered.splitlines()[-1] == "overall: ok"
