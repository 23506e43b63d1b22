"""Job model, override rewriting, and the filesystem job store."""

import json
import os

import numpy as np
import pytest

from repro.errors import ServeError
from repro.serve import jobs as J
from repro.serve.cache import ResultCache
from repro.serve.service import SimulationService
from repro.serve.jobs import (
    JobSpec,
    JobStore,
    apply_overrides,
    canonical_params,
    jsonable,
)


class TestApplyOverrides:
    def test_rewrites_existing_parameter_line(self, script):
        out = apply_overrides(script, {"Initializer.T0": 1234.5})
        assert "parameter Initializer T0 1234.5" in out
        assert "parameter Initializer T0 1000.0" not in out
        # only the one line changed
        assert out.count("parameter Initializer T0") == 1

    def test_injects_missing_parameter_before_go(self, script):
        out = apply_overrides(script, {"Initializer.phi": 0.8})
        lines = out.splitlines()
        i_param = lines.index("parameter Initializer phi 0.8")
        i_go = lines.index("go Driver")
        assert i_param < i_go

    def test_post_go_parameter_line_is_not_rewritten(self, script):
        # a `parameter` line after the first `go` is inert, so the
        # override must be injected before the go, not silently spent
        # rewriting the dead line
        post_go = script + "parameter Initializer T0 999.0\n"
        out = apply_overrides(post_go, {"Initializer.T0": 1234.5})
        lines = out.splitlines()
        i_go = lines.index("go Driver")
        i_eff = lines.index("parameter Initializer T0 1234.5")
        assert i_eff < i_go
        # the inert post-go line is left untouched
        assert lines.index("parameter Initializer T0 999.0") > i_go

    def test_float_values_round_trip_bitwise(self, script):
        from repro.cca.script import _parse_value, parse_script
        value = 0.1 + 0.2  # not exactly representable in short decimal
        out = apply_overrides(script, {"Initializer.T0": value})
        for d in parse_script(out):
            if d.verb == "parameter" and d.args[:2] == ("Initializer",
                                                        "T0"):
                assert _parse_value(list(d.args[2:])) == value
                return
        pytest.fail("override line not found")

    def test_no_params_returns_text_unchanged(self, script):
        assert apply_overrides(script, {}) is script

    def test_rejects_undotted_key(self, script):
        with pytest.raises(ServeError, match="must be"):
            apply_overrides(script, {"T0": 1.0})


class TestCanonicalParams:
    def test_sorted_and_normalized(self):
        out = canonical_params({"B.y": "2.5", "A.x": "3"})
        assert list(out) == ["A.x", "B.y"]
        assert out["A.x"] == 3 and out["B.y"] == 2.5

    def test_cli_strings_equal_python_numbers(self):
        assert canonical_params({"I.T0": "1100"}) == \
            canonical_params({"I.T0": 1100})


def test_jsonable_arrays_and_tuples_become_lists():
    doc = jsonable({"Y": np.array([1.0, 2.0]),
                    "hist": [(0.0, np.float64(3.5))],
                    "n": np.int64(7)})
    assert doc == {"Y": [1.0, 2.0], "hist": [[0.0, 3.5]], "n": 7}
    json.dumps(doc)  # round-trippable


class TestJobStore:
    def test_new_job_allocates_monotonic_ids(self, tmp_path, script):
        store = JobStore(str(tmp_path))
        a = store.new_job(JobSpec(script=script))
        b = store.new_job(JobSpec(script=script, tenant="t2"))
        assert [a.job_id, b.job_id] == ["j-000001", "j-000002"]
        assert store.job_ids() == ["j-000001", "j-000002"]
        assert store.get_record(b.job_id).tenant == "t2"
        assert store.get_spec(a.job_id).script == script

    def test_two_stores_on_one_root_allocate_distinct_monotonic_ids(
            self, tmp_path, script):
        a, b = JobStore(str(tmp_path)), JobStore(str(tmp_path))
        ids: dict = {a: [], b: []}
        for store in (a, b, b, a, a, b):
            ids[store].append(store.new_job(JobSpec(script=script)).job_id)
        every = ids[a] + ids[b]
        assert len(set(every)) == 6
        assert all(seq == sorted(seq) for seq in ids.values())
        assert a.job_ids() == sorted(every)
        # a store opened later starts past everything on disk
        late = JobStore(str(tmp_path)).new_job(JobSpec(script=script))
        assert late.job_id > max(every)

    def test_new_job_writes_the_complete_record(self, tmp_path, script):
        store = JobStore(str(tmp_path))
        rec = store.new_job(JobSpec(script=script), state=J.FAILED,
                            rejected=True, error="admission: x")
        assert store.get_record(rec.job_id) == rec
        assert (rec.state, rec.rejected) == (J.FAILED, True)
        with pytest.raises(ServeError, match="unknown record field"):
            store.new_job(JobSpec(script=script), bogus=1)
        assert store.job_ids() == [rec.job_id]

    def test_transition_guards_state(self, tmp_path, script):
        store = JobStore(str(tmp_path))
        rec = store.new_job(JobSpec(script=script))
        assert store.transition(rec.job_id, (J.QUEUED,),
                                state=J.RUNNING) is not None
        # queued -> cancelled no longer allowed once running
        assert store.transition(rec.job_id, (J.QUEUED,),
                                state=J.CANCELLED) is None
        assert store.get_record(rec.job_id).state == J.RUNNING

    def test_transition_rejects_unknown_field(self, tmp_path, script):
        store = JobStore(str(tmp_path))
        rec = store.new_job(JobSpec(script=script))
        with pytest.raises(ServeError, match="unknown record field"):
            store.transition(rec.job_id, (J.QUEUED,), bogus=1)

    def test_result_round_trip(self, tmp_path, script):
        store = JobStore(str(tmp_path))
        rec = store.new_job(JobSpec(script=script))
        done = store.transition(rec.job_id, (J.QUEUED,), state=J.DONE,
                                result={"schema": 1, "result": {"x": 1.5}})
        assert store.read_result(rec.job_id)["result"] == {"x": 1.5}
        # the result and the state it lands with are one document
        assert store.get_record(rec.job_id) == done

    def test_unknown_job_raises(self, tmp_path, script):
        store = JobStore(str(tmp_path))
        with pytest.raises(ServeError, match="no job"):
            store.get_record("j-999999")
        with pytest.raises(ServeError, match="no result"):
            store.read_result("j-999999")
        queued = store.new_job(JobSpec(script=script)).job_id
        with pytest.raises(ServeError, match="no result"):
            store.read_result(queued)

    def test_one_document_per_job(self, tmp_path, script):
        store = JobStore(str(tmp_path))
        rec = store.new_job(JobSpec(script=script))
        store.transition(rec.job_id, (J.QUEUED,), state=J.RUNNING)
        assert sorted(os.listdir(tmp_path)) == [f"{rec.job_id}.json"]

    def test_old_layout_root_is_refused(self, tmp_path):
        root = tmp_path / "serve"
        (root / "jobs" / "j-000001").mkdir(parents=True)
        (root / "jobs" / "j-000001" / "record.json").write_text("{}")
        with pytest.raises(ServeError, match="old directory-per-job"):
            SimulationService(str(root), autostart=False)
        with pytest.raises(ServeError, match="old directory-per-job"):
            JobStore(str(root / "jobs"))
        (tmp_path / "cache" / "ab").mkdir(parents=True)
        with pytest.raises(ServeError, match="old sharded layout"):
            ResultCache(str(tmp_path / "cache"))

    def test_spec_round_trips_all_fields(self, tmp_path, script):
        store = JobStore(str(tmp_path))
        spec = JobSpec(script=script, params={"Initializer.T0": 1050.0},
                       tenant="alice", priority=3, nprocs=2, retries=1,
                       backoff=0.5, fault="kill_rank=0", use_cache=False)
        rec = store.new_job(spec)
        assert store.get_spec(rec.job_id) == spec


class TestFileSystemBudget:
    """A job costs three writes of its document (submit, ``running``,
    ``done`` with the result) and one cache entry, and no directory."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = {"replace": 0, "link": 0, "mkdir": 0}
        for name in seen:
            real = getattr(os, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                seen[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(os, name, counted)
        return seen

    def test_batched_jobs(self, tmp_path, registry, script, calls):
        with SimulationService(str(tmp_path / "s"), workers=1,
                               registry=registry) as svc:
            before = dict(calls)
            ids = svc.sweep(script, {"Initializer.T0": [1000.0, 1010.0]})
            assert svc.drain(timeout=120)
            spent = {k: calls[k] - before[k] for k in calls}
            assert all(svc.status(j)["batched"] for j in ids)
        # per job: 1 link + 2 document replaces + 1 cache replace
        assert spent == {"link": 2, "replace": 6, "mkdir": 0}

    def test_single_job(self, tmp_path, registry, script, calls):
        with SimulationService(str(tmp_path / "s"), workers=1,
                               registry=registry) as svc:
            before = dict(calls)
            job_id = svc.submit(script, backend="threads")
            assert svc.drain(timeout=120)
            spent = {k: calls[k] - before[k] for k in calls}
            assert svc.status(job_id)["state"] == J.DONE
        assert spent == {"link": 1, "replace": 3, "mkdir": 0}
