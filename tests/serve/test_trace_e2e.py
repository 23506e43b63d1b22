"""End-to-end serve job tracing (ISSUE 10 tentpole b): a trace id
minted at submit follows the job through scheduler -> supervised runner
-> backend ranks, and the per-job artifact links them all."""

import json
import os
import shutil

import repro.obs as obs
from repro.obs.__main__ import main as obs_main
from repro.obs.export import load_chrome_trace
from repro.serve import jobs as J
from repro.serve.jobs import JobRecord
from repro.serve.service import SimulationService


class TestRecordSchema:
    """Schema guard: the new trace fields round-trip through the job
    store's JSON documents and tolerate pre-trace records."""

    def test_trace_fields_round_trip(self):
        rec = JobRecord(job_id="j-000001", trace_id="tr-abc123",
                        trace_path="/tmp/jobs/j-000001.trace.json")
        doc = json.loads(json.dumps(rec.to_json()))
        back = JobRecord.from_json(doc)
        assert back.trace_id == "tr-abc123"
        assert back.trace_path == rec.trace_path

    def test_pre_trace_documents_still_load(self):
        doc = JobRecord(job_id="j-000002").to_json()
        del doc["trace_id"], doc["trace_path"]
        back = JobRecord.from_json(doc)
        assert back.trace_id == "" and back.trace_path == ""


def test_trace_id_minted_even_when_tracing_is_off(service, script):
    job_id = service.submit(script)
    assert service.drain(timeout=120)
    record = service.store.get_record(job_id)
    assert record.trace_id.startswith("tr-")
    assert record.trace_path == ""  # no artifact without the tracer


def test_single_job_trace_links_scheduler_to_ranks(tmp_path, registry,
                                                   script):
    with obs.tracing():
        svc = SimulationService(str(tmp_path / "serve_tr"), workers=1,
                                registry=registry)
        try:
            job_id = svc.submit(script, use_cache=False)
            assert svc.drain(timeout=120)
        finally:
            svc.close()
        record = svc.store.get_record(job_id)
    assert record.state == J.DONE
    assert record.trace_id.startswith("tr-")
    assert record.trace_path
    events = load_chrome_trace(record.trace_path)
    assert events
    # every event in the artifact belongs to this job's trace
    for e in events:
        assert e.args and e.args.get("trace_id") == record.trace_id
    names = {e.name for e in events}
    # submit -> scheduler span -> launcher span -> component spans
    assert "serve.submit" in names
    assert "serve.job" in names
    assert "mpi.world" in names
    assert any(e.cat == "port" for e in events)
    # the scheduler span brackets the world launch
    job_span = next(e for e in events if e.name == "serve.job")
    world = next(e for e in events if e.name == "mpi.world")
    assert job_span.ts <= world.ts
    assert world.ts + world.dur <= job_span.ts + job_span.dur + 1.0


def test_batch_members_link_to_the_shared_batch_span(tmp_path, registry,
                                                     script):
    with obs.tracing():
        svc = SimulationService(str(tmp_path / "serve_b"), workers=1,
                                registry=registry, batch_size=16)
        try:
            job_ids = svc.sweep(
                script, {"Initializer.T0": [1000.0, 1050.0, 1100.0]})
            assert svc.drain(timeout=120)
        finally:
            svc.close()
        records = {j: svc.store.get_record(j) for j in job_ids}
    batched = [r for r in records.values() if r.batched]
    assert batched, "sweep did not coalesce; batching regressed"
    batch_tids = set()
    for record in batched:
        assert record.trace_path
        events = load_chrome_trace(record.trace_path)
        batch_spans = [e for e in events if e.name == "serve.batch"]
        assert len(batch_spans) == 1
        batch_tids.add(batch_spans[0].args["trace_id"])
        done = [e for e in events if e.name == "serve.job_done"
                and e.args.get("job") == record.job_id]
        assert len(done) == 1
        assert done[0].args["batch_trace_id"] == \
            batch_spans[0].args["trace_id"]
        assert done[0].args["batch_size"] == record.batch_size
    # all members of one coalesced solve share one batch trace id
    assert len(batch_tids) == 1
    assert next(iter(batch_tids)).startswith("tr-batch-")


def test_stats_and_cli_surface_the_trace(tmp_path, registry, script,
                                         capsys):
    with obs.tracing():
        svc = SimulationService(str(tmp_path / "serve_s"), workers=1,
                                registry=registry)
        try:
            job_id = svc.submit(script, use_cache=False)
            assert svc.drain(timeout=120)
            stats = svc.stats()
        finally:
            svc.close()
        record = svc.store.get_record(job_id)
    assert stats["traces"][job_id]["trace_id"] == record.trace_id
    assert stats["traces"][job_id]["artifact"] == record.trace_path
    # the obs CLI finds the job through the serve root
    rc = obs_main(["job", job_id, "--root", str(tmp_path / "serve_s")])
    out = capsys.readouterr().out
    assert rc == 0
    assert record.trace_id in out
    assert "events" in out


def test_obs_job_finds_the_artifact_of_a_moved_root(tmp_path, registry,
                                                    script, capsys):
    root = tmp_path / "serve_m"
    with obs.tracing():
        svc = SimulationService(str(root), workers=1, registry=registry)
        try:
            job_id = svc.submit(script, use_cache=False)
            assert svc.drain(timeout=120)
        finally:
            svc.close()
    record = svc.store.get_record(job_id)
    # the artifact sits beside the job's document
    assert record.trace_path == svc.store.trace_path(job_id)
    moved = tmp_path / "moved"
    shutil.copytree(root, moved)
    shutil.rmtree(root)
    assert not os.path.exists(record.trace_path)  # the recorded path is stale
    rc = obs_main(["job", job_id, "--root", str(moved), "--json"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["trace_path"] == record.trace_path
    assert report["events"] > 0
    assert report["critical_path"] is not None
