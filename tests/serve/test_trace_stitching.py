"""Cross-process trace stitching: one trace id per submission, from the
service's submit span through the child worker's kernel spans."""

import json
import os

import pytest

from repro.harness.cli import main
from repro.obs import trace
from repro.obs.context import stitch_trace, trace_ids
from repro.obs.spans import Tracer
from repro.serve.service import COALESCED, EXECUTED, BenchService
from serveutil import make_job, ok_report


@pytest.mark.usefixtures("fake_kernels")
class TestCrossProcessStitching:
    def test_one_trace_id_from_submit_to_child_kernel_spans(self):
        tracer = Tracer()
        with trace.use(tracer):
            with BenchService(workers=1, isolation="process",
                              store=None, reuse=False) as service:
                handle = service.submit("fake-ok", studies=("timing",),
                                        scale=0.05)
                report = handle.wait(timeout=60)
        assert report.error is None
        assert handle.origin == EXECUTED
        assert handle.trace_id

        stitched = stitch_trace(handle.trace_id, tracer.records(),
                                report.spans)
        names = {record["name"] for record in stitched}
        # Service-side spans (parent process)...
        assert "serve/submit/fake-ok" in names
        assert "serve/execute/fake-ok" in names
        # ...and kernel spans recorded inside the worker process.
        assert "kernel/fake-ok/prepare" in names
        assert "kernel/fake-ok/execute" in names

        pids = {record.get("pid") for record in stitched}
        assert len(pids) >= 2, "expected spans from parent and child"
        assert all(record.get("trace") == handle.trace_id
                   for record in stitched)

        # Child-side roots point back at the submit record, so the
        # stitched view is one tree per request, not a forest.
        submit_id = next(r["id"] for r in stitched
                         if r["name"] == "serve/submit/fake-ok")
        child_roots = [r for r in stitched
                       if r.get("pid") != os.getpid()
                       and r.get("parent", -1) == -1]
        assert child_roots
        assert all(r.get("parent_span") == submit_id for r in child_roots)

    def test_distinct_submissions_get_distinct_traces(self):
        tracer = Tracer()
        with trace.use(tracer):
            with BenchService(workers=1, isolation="process",
                              store=None, reuse=False) as service:
                first = service.submit("fake-ok", scale=0.05, seed=1)
                second = service.submit("fake-ok", scale=0.05, seed=2)
                first.wait(timeout=60)
                second.wait(timeout=60)
        assert first.trace_id != second.trace_id
        ids = trace_ids(tracer.records())
        assert first.trace_id in ids and second.trace_id in ids


@pytest.mark.usefixtures("fake_kernels")
class TestLinkSpans:
    def test_coalesced_request_links_to_executing_trace(self):
        tracer = Tracer()
        with trace.use(tracer):
            service = BenchService(workers=1, isolation="inline",
                                   store=None, reuse=False,
                                   runner=ok_report, autostart=False)
            leader = service.submit_job(make_job(seed=7))
            follower = service.submit_job(make_job(seed=7))
            assert follower.origin == COALESCED
            service.start()
            leader.wait(timeout=10)
            follower.wait(timeout=10)
            service.shutdown()

        assert follower.trace_id != leader.trace_id
        link = next(r for r in tracer.records()
                    if r["name"] == "serve/coalesce/fake-ok")
        # The link span lives in the follower's trace and points at the
        # execution that actually served it.
        assert link["trace"] == follower.trace_id
        assert link["attrs"]["link"] == leader.trace_id

    def test_cache_hit_links_to_original_trace(self, tmp_path):
        from repro.harness.store import ResultStore

        store = ResultStore(tmp_path)
        tracer = Tracer()
        with trace.use(tracer):
            with BenchService(workers=1, isolation="inline",
                              store=store, runner=ok_report) as service:
                first = service.submit_job(make_job(seed=9))
                first.wait(timeout=10)
                second = service.submit_job(make_job(seed=9))
                report = second.wait(timeout=10)
        assert report is not None
        assert second.origin != EXECUTED
        hit = next(r for r in tracer.records()
                   if r["name"] == "serve/cache-hit/fake-ok")
        assert hit["trace"] == second.trace_id
        # Cached spans keep the original trace id; the hit span links
        # back to it when the stored report carries spans.
        assert hit["attrs"]["digest"] == second.digest


@pytest.mark.usefixtures("fake_kernels")
class TestServeTraceCLI:
    def test_serve_trace_writes_single_trace_chrome_file(
            self, tmp_path, capsys):
        out = tmp_path / "fake.trace.json"
        code = main(["serve", "trace", "fake-ok", "--scale", "0.05",
                     "--isolation", "inline", "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "Stitched trace" in stdout
        assert "one trace id:" in stdout

        events = json.loads(out.read_text())["traceEvents"]
        assert events
        ids = {event["args"]["trace"] for event in events
               if event.get("args", {}).get("trace")}
        assert len(ids) == 1
        names = {event["name"] for event in events}
        assert "serve/submit/fake-ok" in names
        assert "kernel/fake-ok/execute" in names
