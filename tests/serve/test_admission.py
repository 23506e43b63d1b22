"""Static admission control: the RA41x gate in front of the scheduler.

An invalid submission must fail *instantly* — findings on the record, a
per-tenant ``serve.rejected`` tick, and no worker involvement — while
admitted jobs behave exactly as before (warnings ride along in the
record metadata).
"""

import warnings

from repro.cca.framework import Framework
from repro.components import ALL_COMPONENTS
from repro.serve import jobs as J
from repro.serve.service import SimulationService

from .conftest import IGNITION_RC


def find_codes(record):
    return sorted(f["code"] for f in record["findings"])


def test_out_of_range_override_rejected_instantly(service):
    job_id = service.submit(IGNITION_RC,
                            params={"Initializer.T0": 99999.0})
    record = service.status(job_id)
    assert record["state"] == J.FAILED
    assert record["rejected"] is True
    assert record["started"] == record["finished"]  # never ran
    assert "RA412" in find_codes(record)
    assert record["error"].startswith("admission:")
    # rejection happened at submit: the queue never saw the job
    assert service.scheduler.queue_depth() == 0


def test_string_override_on_float_parameter_rejected(service):
    # regression: apply_overrides used to accept any string for a
    # numeric parameter and fail (or misbehave) only inside the run
    job_id = service.submit(IGNITION_RC,
                            params={"Initializer.T0": "hot"})
    record = service.status(job_id)
    assert record["state"] == J.FAILED and record["rejected"] is True
    assert find_codes(record) == ["RA414"]


def test_unknown_parameter_rejected_with_findings(service):
    job_id = service.submit(IGNITION_RC,
                            params={"Initializer.bogus_knob": 1.0})
    record = service.status(job_id)
    assert record["state"] == J.FAILED
    assert find_codes(record) == ["RA411"]


def test_bad_script_rejected_at_submit(service):
    job_id = service.submit("instantiate OnlyOneArg\n")
    record = service.status(job_id)
    assert record["state"] == J.FAILED and record["rejected"] is True
    assert "RA001" in find_codes(record)


def test_script_selecting_the_deleted_chemistry_fork_is_rejected(service):
    from tests.analysis.test_cli import stale_flame_rc

    record = service.status(service.submit(stale_flame_rc()))
    assert record["state"] == J.FAILED and record["rejected"] is True
    assert find_codes(record) == ["RA005", "RA411"]


def test_rejected_jobs_tick_the_tenant_metric(service, registry):
    service.submit(IGNITION_RC, params={"Initializer.T0": -5.0},
                   tenant="alice")
    service.submit(IGNITION_RC, params={"Initializer.T0": 1000.0},
                   tenant="alice")
    stats = service.stats()
    assert stats["tenants"]["alice"]["rejected"] == 1
    assert stats["tenants"]["alice"]["submitted"] == 2
    records = [m for m in registry.snapshot()
               if m["name"] == "serve.rejected"
               and m["labels"].get("tenant") == "alice"]
    assert len(records) == 1 and records[0]["value"] == 1


def test_numeric_string_override_coerced_for_cache_identity(service):
    j_str = service.submit(IGNITION_RC,
                           params={"Initializer.T0": "1100"})
    j_num = service.submit(IGNITION_RC,
                           params={"Initializer.T0": 1100.0})
    spec = service.store.get_spec(j_str)
    assert spec.params["Initializer.T0"] == 1100.0
    assert isinstance(spec.params["Initializer.T0"], float)
    # identical canonical params => identical cache address
    assert (service.store.get_record(j_str).cache_key
            == service.store.get_record(j_num).cache_key != "")


def test_sweep_rejects_only_the_bad_points(service):
    job_ids = service.sweep(IGNITION_RC,
                            {"Initializer.T0": [1000.0, 99999.0, 1100.0]},
                            tenant="bob")
    states = [service.status(j)["state"] for j in job_ids]
    assert states.count(J.FAILED) == 1
    rejected = [service.status(j) for j in job_ids
                if service.status(j)["rejected"]]
    assert len(rejected) == 1
    assert "RA412" in find_codes(rejected[0])
    service.drain()
    good = [j for j in job_ids if not service.status(j)["rejected"]]
    assert all(service.status(j)["state"] == J.DONE for j in good)


def test_admitted_job_runs_and_stays_finding_free(service):
    job_id = service.submit(IGNITION_RC,
                            params={"Initializer.T0": 1050.0})
    service.drain()
    record = service.status(job_id)
    assert record["state"] == J.DONE
    assert record["rejected"] is False
    assert record["findings"] == []


def test_admission_can_be_disabled(tmp_path, registry):
    with SimulationService(str(tmp_path / "open"), registry=registry,
                           autostart=False, admission=False) as svc:
        job_id = svc.submit(IGNITION_RC,
                            params={"Initializer.T0": 99999.0})
        record = svc.status(job_id)
        assert record["state"] == J.QUEUED
        assert record["rejected"] is False


def test_rejection_needs_no_workers(tmp_path, registry):
    # autostart=False: nothing is running, rejection still lands
    with SimulationService(str(tmp_path / "cold"), registry=registry,
                           autostart=False) as svc:
        job_id = svc.submit(IGNITION_RC,
                            params={"Driver.t_end": -1.0})
        assert svc.status(job_id)["state"] == J.FAILED
        assert "RA412" in find_codes(svc.status(job_id))


# -- Framework.set_parameter warning (runtime analog of RA411) ------------
def build_ignition_framework():
    fw = Framework()
    fw.registry.register_many(ALL_COMPONENTS)
    from repro.apps.ignition0d import Ignition0DDriver

    fw.registry.register(Ignition0DDriver)
    from repro.cca.script import run_script

    # wiring only: strip the go directive
    run_script(fw, "\n".join(
        ln for ln in IGNITION_RC.splitlines()
        if not ln.startswith("go ")))
    return fw


def test_set_parameter_warns_on_typoed_key():
    fw = build_ignition_framework()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fw.set_parameter("Initializer", "TO", 1000.0)
    assert len(caught) == 1
    assert "'TO'" in str(caught[0].message)
    assert "Initializer" in str(caught[0].message)


def test_set_parameter_accepts_declared_and_extern_keys():
    fw = build_ignition_framework()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fw.set_parameter("Initializer", "T0", 1000.0)
        # extern: consumed by the resilience hook, not the driver source
        fw.set_parameter("Driver", "checkpoint_path", "/tmp/x")
        fw.set_parameter("Driver", "resume", True)
    assert caught == []


def test_set_parameter_silent_for_unmanifested_classes():
    from repro.cca.component import Component

    class AdHoc(Component):
        def set_services(self, services):
            self.services = services

    fw = Framework()
    fw.registry.register(AdHoc)
    fw.instantiate("AdHoc", "x")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fw.set_parameter("x", "anything", 1)
    assert caught == []
