"""Suite runner: studies, serialization, schema compatibility."""

import json
import subprocess

import pytest

from repro.errors import KernelError
from repro.harness import runner
from repro.harness.runner import (
    SCHEMA_VERSION,
    KernelReport,
    load_reports,
    run_kernel_studies,
    run_suite,
    save_reports,
)


class TestStudies:
    def test_timing_study(self):
        report = run_kernel_studies("gbwt", studies=("timing",), scale=0.25)
        assert report.wall_seconds > 0
        assert report.inputs_processed > 0
        assert not report.topdown

    def test_characterization_studies(self):
        report = run_kernel_studies(
            "gbwt", studies=("topdown", "cache", "instmix"), scale=0.25
        )
        assert abs(sum(report.topdown.values()) - 1.0) < 1e-6
        assert report.ipc > 0
        assert set(report.mpki) == {"l1", "l2", "l3"}
        assert abs(sum(report.instruction_mix.values()) - 1.0) < 1e-6
        assert report.instructions > 0

    def test_validate_study(self):
        report = run_kernel_studies("gbwt", studies=("validate",), scale=0.25)
        assert report.validated

    def test_unknown_study_rejected(self):
        with pytest.raises(KernelError):
            run_kernel_studies("gbwt", studies=("vtune",))

    def test_run_metadata_recorded(self):
        report = run_kernel_studies("gbwt", studies=("timing",), scale=0.25,
                                    seed=3)
        assert report.scale == 0.25
        assert report.seed == 3
        assert report.machine == "machine_b"
        assert report.ok


class TestSuiteAndSerialization:
    def test_run_subset(self):
        reports = run_suite(("gbwt", "tsu"), studies=("timing",), scale=0.25)
        assert set(reports) == {"gbwt", "tsu"}

    def test_save_load_roundtrip(self, tmp_path):
        reports = run_suite(("gbwt",), studies=("timing",), scale=0.25)
        path = tmp_path / "reports.json"
        save_reports(reports, path)
        loaded = load_reports(path)
        assert loaded["gbwt"].inputs_processed == reports["gbwt"].inputs_processed
        assert loaded["gbwt"].work == reports["gbwt"].work
        assert loaded["gbwt"] == reports["gbwt"]

    def test_saved_payload_is_versioned_with_metadata(self, tmp_path):
        path = tmp_path / "reports.json"
        save_reports({"gbwt": KernelReport(kernel="gbwt")}, path)
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == SCHEMA_VERSION
        assert "package_version" in payload["metadata"]
        assert "git_sha" in payload["metadata"]
        assert "gbwt" in payload["reports"]

    def test_load_ignores_unknown_report_fields(self, tmp_path):
        path = tmp_path / "reports.json"
        save_reports({"gbwt": KernelReport(kernel="gbwt", ipc=2.0)}, path)
        payload = json.loads(path.read_text())
        payload["reports"]["gbwt"]["metric_from_the_future"] = [1, 2, 3]
        path.write_text(json.dumps(payload))
        loaded = load_reports(path)
        assert loaded["gbwt"].ipc == 2.0

    def test_load_rejects_future_schema(self, tmp_path):
        path = tmp_path / "reports.json"
        path.write_text(json.dumps({
            "schema_version": SCHEMA_VERSION + 10, "reports": {},
        }))
        with pytest.raises(KernelError):
            load_reports(path)

    def test_load_rejects_unversioned_layout(self, tmp_path):
        """A bare name -> fields mapping has no schema_version."""
        path = tmp_path / "reports.json"
        path.write_text(json.dumps({
            "gbwt": {"kernel": "gbwt", "wall_seconds": 1.0,
                     "inputs_processed": 9},
        }))
        with pytest.raises(KernelError, match="schema_version"):
            load_reports(path)


class TestGitStamp:
    def test_dirty_tree_is_marked(self, tmp_path, monkeypatch):
        def git(*args):
            subprocess.run(["git", "-c", "user.name=t",
                            "-c", "user.email=t@example.com", *args],
                           cwd=tmp_path, check=True, capture_output=True)

        (tmp_path / "tracked.txt").write_text("one\n")
        git("init", "-q")
        git("add", "tracked.txt")
        git("commit", "-q", "-m", "init")
        # _git_sha asks git about the tree its own module file lives in.
        monkeypatch.setattr(runner, "__file__", str(tmp_path / "runner.py"))
        clean = runner._git_sha()
        assert clean != "unknown" and not clean.endswith("-dirty")
        (tmp_path / "untracked.txt").write_text("new\n")
        assert runner._git_sha() == clean
        (tmp_path / "tracked.txt").write_text("two\n")
        assert runner._git_sha() == f"{clean}-dirty"
