"""Command-line interface."""

import json

import pytest

from repro.data import ArtifactStore, use_store
from repro.harness.cli import build_parser, main
from repro.harness.executor import compile_plan
from repro.harness.store import ResultStore, job_digest


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "gssw" in out
        assert "vg_map" in out

    def test_run_timing(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        code = main([
            "run", "--kernels", "gbwt", "--studies", "timing",
            "--scale", "0.25", "--out", str(path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "gbwt" in out
        payload = json.loads(path.read_text())
        assert payload["schema_version"] >= 2
        assert payload["reports"]["gbwt"]["inputs_processed"] > 0

    def test_run_topdown(self, capsys):
        assert main([
            "run", "--kernels", "gbwt", "--studies", "topdown",
            "--scale", "0.25",
        ]) == 0
        assert "IPC" in capsys.readouterr().out

    def test_run_machine_a(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        assert main([
            "run", "--kernels", "gbwt", "--studies", "cache",
            "--scale", "0.25", "--machine", "A", "--out", str(path),
        ]) == 0
        assert "machine=A" in capsys.readouterr().out
        payload = json.loads(path.read_text())
        assert payload["reports"]["gbwt"]["machine"] == "machine_a"

    def test_run_parallel_jobs(self, capsys):
        assert main([
            "run", "--kernels", "gbwt", "tsu", "--studies", "timing,gpu",
            "--scale", "0.25", "--jobs", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "gbwt" in out and "tsu" in out

    def test_run_reuse_hits_cache(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        argv = ["run", "--kernels", "gbwt", "--studies", "timing",
                "--scale", "0.25", "--reuse"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        # The cached report is served verbatim: identical wall seconds.
        assert second == first
        assert list((tmp_path / "cache").glob("??/*.json"))

    def test_failing_kernel_exits_nonzero(self, capsys, fake_kernels):
        code = main(["run", "--kernels", "fake-crash", "fake-ok",
                     "--studies", "timing"])
        assert code == 1
        captured = capsys.readouterr()
        assert "RuntimeError: boom" in captured.out
        assert "fake-crash" in captured.err

    def test_trace_of_a_crashing_kernel_is_a_one_line_error(
            self, capsys, fake_kernels):
        assert main(["trace", "fake-crash"]) == 1
        captured = capsys.readouterr()
        assert "Span tree: fake-crash" in captured.out
        assert captured.err == "error: fake-crash: RuntimeError: boom\n"

    def test_validate(self, capsys):
        assert main(["validate", "--kernels", "gbwt", "--scale", "0.25"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_fails_when_an_oracle_raises(self, capsys,
                                                  fake_kernels):
        code = main(["validate", "--kernels", "fake-ok", "fake-badoracle"])
        assert code == 1
        out = capsys.readouterr().out
        assert "fake-ok" in out and "ok" in out
        assert "fake-badoracle" in out and "FAILED" in out
        assert "oracle mismatch" in out

    @pytest.mark.parametrize("argv", [
        ["run", "nope"],
        ["validate", "--kernels", "nope"],
        ["trace", "nope"],
    ], ids=["run", "validate", "trace"])
    def test_unknown_kernel_is_a_one_line_error(self, capsys, argv):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown kernel 'nope'")
        assert err.count("\n") == 1

    def test_bad_study_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--studies", "vtune"])

    def test_gpu_is_a_known_study(self):
        args = build_parser().parse_args(["run", "tsu", "--studies", "gpu"])
        assert args.studies[-1] == ["gpu"]

    def test_run_scenario(self, capsys):
        assert main([
            "run", "--kernels", "tsu", "--scenario", "divergent",
            "--scale", "0.25", "--studies", "timing",
        ]) == 0
        out = capsys.readouterr().out
        assert "scenario=divergent" in out

    def test_bad_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scenario", "nope"])


class TestBackendCli:
    def test_run_threads_backend_through_to_the_report(
            self, capsys, tmp_path):
        path = tmp_path / "r.json"
        assert main([
            "run", "--kernels", "gbwt", "--studies", "timing",
            "--scale", "0.25", "--backend", "scalar", "--out", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert "backend" in out and "scalar" in out
        payload = json.loads(path.read_text())
        assert payload["reports"]["gbwt"]["backend"] == "scalar"

    def test_unknown_backend_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--backend", "avx512"])

    def test_unsupported_backend_fails_listing_supported(self, capsys):
        code = main(["run", "--kernels", "gbv", "--studies", "timing",
                     "--scale", "0.25", "--backend", "gpu"])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "supported: vectorized" in err

    def test_silent_degradation_warns_on_stderr(
            self, capsys, monkeypatch):
        """A report carrying a ``kernel.backend_fallback`` counter gets
        a one-line warning after the run table."""
        from repro.harness import cli
        from repro.harness.runner import KernelReport

        key = ("kernel.backend_fallback{actual=scalar,component=gssw,"
               "reason=scoring-incompatible,requested=vectorized}")
        report = KernelReport(
            kernel="gssw", inputs_processed=1, backend="scalar",
            metrics={"counters": {key: 2.0}})
        monkeypatch.setattr(cli, "run_suite",
                            lambda *a, **k: {"gssw": report})
        assert main(["run", "--kernels", "gssw",
                     "--studies", "timing"]) == 0
        err = capsys.readouterr().err
        assert ("warning: gssw (gssw): backend 'vectorized' fell back "
                "to 'scalar' [scoring-incompatible, x2]") in err


class TestDataCli:
    def test_build_then_list(self, capsys, tmp_path):
        with use_store(ArtifactStore(tmp_path)):
            assert main(["data", "build", "--scenario", "default",
                         "divergent", "--scale", "0.05"]) == 0
            out = capsys.readouterr().out
            assert out.count("(built)") == 2
            # Second build is a warm no-op served from the store.
            assert main(["data", "build", "--scenario", "default",
                         "--scale", "0.05"]) == 0
            assert "(memory)" in capsys.readouterr().out
            assert main(["data", "list"]) == 0
            out = capsys.readouterr().out
            assert "default" in out and "divergent" in out

    def test_list_empty_store(self, capsys, tmp_path):
        with use_store(ArtifactStore(tmp_path)):
            assert main(["data", "list"]) == 0
            assert "no datasets" in capsys.readouterr().out

    def test_gc_all(self, capsys, tmp_path):
        with use_store(ArtifactStore(tmp_path)):
            assert main(["data", "build", "--scale", "0.05"]) == 0
            capsys.readouterr()
            assert main(["data", "gc", "--all"]) == 0
            assert "removed 1 dataset(s)" in capsys.readouterr().out
            assert main(["data", "list"]) == 0
            assert "no datasets" in capsys.readouterr().out


class TestCacheCli:
    """``repro cache list|gc`` against a ``$REPRO_CACHE_DIR`` store."""

    @pytest.fixture
    def cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        return tmp_path

    @staticmethod
    def _run_reuse(seed):
        assert main(["run", "fake-ok", "--studies", "timing",
                     "--scale", "0.05", "--seed", str(seed),
                     "--reuse"]) == 0

    def test_list_empty_store(self, capsys, cache_dir):
        assert main(["cache", "list"]) == 0
        assert (f"no cached reports under {cache_dir}"
                in capsys.readouterr().out)

    def test_list_after_run_reuse(self, capsys, cache_dir, fake_kernels):
        self._run_reuse(seed=0)
        capsys.readouterr()
        assert main(["cache", "list"]) == 0
        out = capsys.readouterr().out
        [entry] = ResultStore(cache_dir).entries()
        assert entry["digest"] in out
        assert "fake-ok" in out and "timing" in out

    def test_gc_max_entries_keeps_most_recent(self, capsys, cache_dir,
                                              fake_kernels):
        for seed in range(3):
            self._run_reuse(seed)
        self._run_reuse(seed=0)  # a cache hit: seed 0 is now the MRU
        capsys.readouterr()
        [job] = compile_plan(("fake-ok",), studies=("timing",), scale=0.05,
                             seed=0).jobs
        assert main(["cache", "gc", "--max-entries", "1"]) == 0
        assert "removed 2 report(s)" in capsys.readouterr().out
        store = ResultStore(cache_dir)
        assert [meta["digest"] for meta in store.entries()] == [
            job_digest(job)]
        assert len(list(cache_dir.glob("??/*.json"))) == 1

    def test_gc_all(self, capsys, cache_dir, fake_kernels):
        for seed in range(2):
            self._run_reuse(seed)
        (cache_dir / "keep.json").write_text("{}")
        (cache_dir / "keep").mkdir()
        capsys.readouterr()
        assert main(["cache", "gc", "--all"]) == 0
        assert "removed 2 report(s)" in capsys.readouterr().out
        assert ResultStore(cache_dir).entries() == []
        assert not list(cache_dir.glob("??/*.json"))
        assert (cache_dir / "keep.json").is_file()
        assert (cache_dir / "keep").is_dir()


class TestSweepCli:
    def test_expand_suite(self, capsys):
        assert main(["sweep", "expand", "--manifest", "suite"]) == 0
        out = capsys.readouterr().out
        assert "Manifest 'suite': 5 cells" in out
        assert "33190fcb6023c929" in out  # default cell's golden digest
        assert "1 paper-fidelity cell(s): default" in out

    def test_expand_matrix_grid(self, capsys):
        assert main(["sweep", "expand", "--manifest", "matrix"]) == 0
        out = capsys.readouterr().out
        assert "Manifest 'matrix': 54 cells" in out
        assert "pop8-div1x-sv1x-short" in out

    def test_run_then_report(self, capsys, tmp_path):
        out_dir = tmp_path / "sweep"
        code = main([
            "sweep", "run", "--manifest", "suite", "--kernels", "tsu",
            "--cells", "default", "--scales", "0.25",
            "--dir", str(out_dir),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep: 1 grid points" in out
        assert "executed=1" in out
        assert (out_dir / "sweep.json").exists()
        assert main(["sweep", "report", "--dir", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "Leaderboard: suite (1 grid points)" in out
        assert "tsu" in out
        assert (out_dir / "summary_per_kernel_per_scenario.tsv").exists()
        assert (out_dir / "leaderboard_by_metric.tsv").exists()
        summary = (out_dir /
                   "summary_per_kernel_per_scenario.tsv").read_text()
        lines = summary.splitlines()
        assert len(lines) == 2
        assert "\tpaper\t" in lines[1]  # suite default is a paper cell
        assert "\tok\t" in lines[1]     # ... whose gates pass for real

    def test_run_unknown_cell_fails_fast(self, capsys, tmp_path):
        assert main([
            "sweep", "run", "--manifest", "suite", "--kernels", "tsu",
            "--cells", "nope", "--dir", str(tmp_path),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no cell" in err
        assert not list(tmp_path.iterdir())

    def test_comma_separated_kernel_lists(self, capsys, tmp_path):
        out_dir = tmp_path / "sweep"
        code = main([
            "sweep", "run", "--manifest", "suite", "--kernels", "tsu,gbwt",
            "--cells", "dense-pop", "--scales", "0.25",
            "--dir", str(out_dir),
        ])
        assert code == 0
        assert "2 kernels" in capsys.readouterr().out


class TestObsCli:
    def test_obs_check_passes_on_committed_trajectories(
            self, capsys, tmp_path):
        out = tmp_path / "obs_check.json"
        assert main(["obs", "check", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "overall:" in stdout
        payload = json.loads(out.read_text())
        assert payload["status"] in ("ok", "warn")

    def test_obs_check_fails_on_degraded_trajectories(
            self, capsys, tmp_path):
        from repro.obs.baseline import repo_root

        degrade = {"served_without_execution_rate": 0.5,
                   "warm_cache_hit_rate": 0.5, "replay_instructions": 2.0}
        for name in ("BENCH_serve_load.json", "BENCH_sweep.json",
                     "BENCH_trace_throughput.json"):
            payload = json.loads((repo_root() / name).read_text())
            entry = dict(payload["entries"][-1])
            for field, factor in degrade.items():
                if field in entry:
                    entry[field] *= factor
            payload["entries"].append(entry)
            (tmp_path / name).write_text(json.dumps(payload))
        out = tmp_path / "obs_check.json"
        code = main(["obs", "check", "--root", str(tmp_path),
                     "--out", str(out)])
        assert code == 1
        assert json.loads(out.read_text())["status"] == "regress"
        assert "regress" in capsys.readouterr().out

    def test_obs_check_compares_report_files(self, capsys, tmp_path):
        from repro.harness.runner import KernelReport, save_reports

        fast = {"tc": KernelReport(kernel="tc", wall_seconds=1.0)}
        slow = {"tc": KernelReport(kernel="tc", wall_seconds=3.0)}
        save_reports(fast, tmp_path / "base.json")
        save_reports(slow, tmp_path / "cand.json")
        code = main(["obs", "check",
                     "--candidate", str(tmp_path / "cand.json"),
                     "--baseline", str(tmp_path / "base.json")])
        assert code == 1
        assert "report.tc.wall_seconds" in capsys.readouterr().out

    def test_obs_export_renders_report_metrics(self, capsys, tmp_path,
                                               fake_kernels):
        from repro.harness.runner import run_suite, save_reports

        reports = run_suite(("fake-ok",), studies=("timing",))
        save_reports(reports, tmp_path / "r.json")
        code = main(["obs", "export", "--reports", str(tmp_path / "r.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert '# TYPE kernel_runs_total counter' in out
        assert 'kernel_runs_total{backend="vectorized",kernel="fake-ok"} 1' in out

    def test_obs_export_json_snapshot(self, capsys, tmp_path,
                                      fake_kernels):
        from repro.harness.runner import run_suite, save_reports

        reports = run_suite(("fake-ok",), studies=("timing",))
        save_reports(reports, tmp_path / "r.json")
        out = tmp_path / "snap.json"
        code = main(["obs", "export", "--reports", str(tmp_path / "r.json"),
                     "--format", "json", "--out", str(out)])
        assert code == 0
        snap = json.loads(out.read_text())
        assert snap["schema"] == 1
        assert "kernel.runs{backend=vectorized,kernel=fake-ok}" in snap["metrics"]["counters"]
