"""`repro serve submit` and `repro cache {list,gc}`."""

from __future__ import annotations

import json

from serveutil import make_job, ok_report

from repro.harness.cli import main
from repro.harness.store import ResultStore


class TestServeSubmitCli:
    def test_duplicates_coalesce_and_metrics_dump(self, capsys, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        metrics_path = tmp_path / "serve-metrics.json"
        assert main([
            "serve", "submit", "tsu", "tsu",
            "--studies", "timing", "--scale", "0.05",
            "--workers", "1", "--isolation", "inline",
            "--metrics-out", str(metrics_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "executed" in out
        assert "submitted=2 executed=1 coalesced=1" in out

        exported = json.loads(metrics_path.read_text())
        executed = sum(value for key, value
                       in exported["counters"].items()
                       if key.startswith("serve.executed"))
        coalesced = sum(value for key, value
                        in exported["counters"].items()
                        if key.startswith("serve.coalesced"))
        assert executed == 1
        assert coalesced == 1

    def test_warm_rerun_serves_from_cache(self, capsys, tmp_path,
                                          monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        argv = ["serve", "submit", "tsu", "--studies", "timing",
                "--scale", "0.05", "--workers", "1",
                "--isolation", "inline"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert "cache_hits=1" in capsys.readouterr().out

    def test_unknown_kernel_fails_cleanly(self, capsys, tmp_path,
                                          monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["serve", "submit", "no-such-kernel",
                     "--isolation", "inline"]) != 0


class TestCacheCli:
    def _populated(self, root, count=3):
        store = ResultStore(root)
        for seed in range(count):
            job = make_job(seed=seed, kernel=f"fake-{seed}")
            store.save(job, ok_report(job))
        return store

    def test_list_shows_entries(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        self._populated(tmp_path)
        assert main(["cache", "list"]) == 0
        out = capsys.readouterr().out
        assert "fake-0" in out and "fake-2" in out
        assert str(tmp_path) in out

    def test_list_empty_store(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "fresh"))
        assert main(["cache", "list"]) == 0

    def test_gc_enforces_entry_budget(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        self._populated(tmp_path)
        assert main(["cache", "gc", "--max-entries", "1"]) == 0
        assert "removed 2 report(s)" in capsys.readouterr().out
        assert len(ResultStore(tmp_path).entries()) == 1

    def test_gc_all_clears_everything(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        self._populated(tmp_path)
        assert main(["cache", "gc", "--all"]) == 0
        assert ResultStore(tmp_path).entries() == []


class TestServeStatusCli:
    def test_status_against_a_live_endpoint(self, capsys):
        from repro.obs import metrics as obs_metrics
        from repro.obs.telemetry import TelemetryServer

        registry = obs_metrics.MetricsRegistry()
        registry.counter("serve.submitted", kernel="tc").inc()
        with TelemetryServer(registry=registry) as server:
            code = main(["serve", "status", "--url", server.url,
                         "--metrics"])
        assert code == 0
        out = capsys.readouterr().out
        assert "/healthz [200]" in out
        assert "/readyz [200]" in out
        assert 'serve_submitted_total{kernel="tc"} 1' in out

    def test_status_unreachable_exits_2(self, capsys):
        code = main(["serve", "status",
                     "--url", "http://127.0.0.1:1"])
        assert code == 2

    def test_submit_with_telemetry_port_prints_url(self, capsys, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main([
            "serve", "submit", "tsu", "--studies", "timing",
            "--scale", "0.05", "--workers", "1", "--isolation", "inline",
            "--telemetry-port", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "telemetry at http://127.0.0.1:" in out
        # The per-origin latency summary (interpolated quantiles).
        assert "latency[executed]: n=1 p50=" in out
        assert "p95=" in out and "p99=" in out
