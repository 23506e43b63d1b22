"""Crash drill for the one-document job store.

A job's life is four writes: its submitted document (``os.link``), the
``running`` document, the cache entry, and the ``done`` document that
carries the result (each ``os.replace``).  The drill kills the service at
each of them in turn, once in a batched job and once in a single job: the
write raises, and every write after it does too, as if the process had
died there.  A fresh service then boots on the same root, and the client
resubmits what was never acknowledged.  Every job must end ``done``
exactly once, with the cold payload bitwise; none may be lost.
"""

import json
import os
import threading

import pytest

from repro.integrators.cvode import CVode
from repro.obs.metrics import MetricsRegistry
from repro.serve import jobs as J
from repro.serve.service import SimulationService
from tests.serve.conftest import IGNITION_RC

GRID = [1000.0, 1040.0]     # one coalesced pair
SINGLE = 1080.0             # named backend: alone through the runner
KINDS = ("submit", "running", "cache", "done")


class Crash(BaseException):
    """The process dies: no ``except Exception`` in the service stops it."""


def _submit_all(svc, script, want, acked):
    """Submit what ``want`` lists; ``acked`` collects {T0: job id} of
    what the service acknowledged (a sweep is acknowledged as a whole)."""
    sweep = [t0 for t0 in GRID if t0 in want]
    if sweep:
        acked.update(zip(sweep, svc.sweep(script,
                                          {"Initializer.T0": sweep})))
    if SINGLE in want:
        acked[SINGLE] = svc.submit(
            script, params={"Initializer.T0": SINGLE}, backend="threads")


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """The payloads of a run nothing interrupted, by T0, as JSON text."""
    root = str(tmp_path_factory.mktemp("cold"))
    acked = {}
    with SimulationService(root, workers=1,
                           registry=MetricsRegistry()) as svc:
        _submit_all(svc, IGNITION_RC, set(GRID) | {SINGLE}, acked)
        assert svc.drain(timeout=120)
        return {t0: json.dumps(svc.result(j)["result"], sort_keys=True)
                for t0, j in acked.items()}


class _Disk:
    """``os.link`` / ``os.replace`` that record every job write that
    lands and die at the ``n``-th write of one kind."""

    def __init__(self, monkeypatch, kind, n):
        self.kind, self.n = kind, n
        self.dead = threading.Event()
        self.done_writes: dict[str, int] = {}
        self._link, self._replace = os.link, os.replace
        monkeypatch.setattr(os, "link", self.link)
        monkeypatch.setattr(os, "replace", self.replace)

    def _land(self, kind, doc):
        if self.dead.is_set():
            raise Crash("the process is gone")
        if kind == self.kind:
            self.n -= 1
            if self.n == 0:
                self.dead.set()
                raise Crash(f"killed at the {kind} write")
        if kind == "done":
            job_id = doc["record"]["job_id"]
            self.done_writes[job_id] = self.done_writes.get(job_id, 0) + 1

    def link(self, src, dst, *args, **kwargs):
        if os.sep + "jobs" + os.sep in dst:
            self._land("submit", None)
        return self._link(src, dst, *args, **kwargs)

    def replace(self, src, dst, *args, **kwargs):
        if os.sep + "cache" + os.sep in dst:
            self._land("cache", None)
        elif os.sep + "jobs" + os.sep in dst:
            with open(src, encoding="utf-8") as fh:
                doc = json.load(fh)
            self._land(doc["record"]["state"], doc)
        return self._replace(src, dst, *args, **kwargs)


@pytest.mark.parametrize("target", ["batched", "single"])
@pytest.mark.parametrize("kind", KINDS)
def test_a_crash_at_any_write_loses_no_job_and_runs_none_twice(
        tmp_path, monkeypatch, registry, script, cold, kind, target):
    hook = threading.excepthook
    monkeypatch.setattr(threading, "excepthook", lambda args: None if
                        issubclass(args.exc_type, Crash) else hook(args))
    # the batch is claimed first, so the single's write is the third
    disk = _Disk(monkeypatch, kind, 1 if target == "batched" else 3)
    root = str(tmp_path / "s")
    want = set(GRID) | {SINGLE}

    acked: dict[float, str] = {}
    svc = SimulationService(root, workers=1, registry=registry,
                            autostart=False)
    try:
        _submit_all(svc, script, want, acked)
        svc.start()
    except Crash:
        pass
    assert disk.dead.wait(timeout=120)
    svc.close()
    want -= set(acked)
    # the result and ``done`` land together: never running with a result
    for job_id in svc.store.job_ids():
        with open(svc.store.path(job_id), encoding="utf-8") as fh:
            doc = json.load(fh)
        assert ("result" in doc) == (doc["record"]["state"] == J.DONE)

    disk.dead.clear()
    disk.kind = None
    attempts = []
    real_attempt = CVode._attempt
    monkeypatch.setattr(CVode, "_attempt", lambda self, idx: (
        attempts.append(len(idx)), real_attempt(self, idx))[1])
    with SimulationService(root, workers=1, registry=registry) as fresh:
        _submit_all(fresh, script, want, acked)
        assert fresh.drain(timeout=120)
        assert sorted(acked.values()) == fresh.store.job_ids()
        for t0, job_id in acked.items():
            assert fresh.status(job_id)["state"] == J.DONE
            payload = fresh.result(job_id)
            assert json.dumps(payload["result"], sort_keys=True) == cold[t0]
    assert disk.done_writes == {j: 1 for j in acked.values()}
    if kind == "done" and target == "single":
        # its result reached the cache before the crash: the rerun is
        # answered by the execution-time cache check, without a step
        assert fresh.status(acked[SINGLE])["cache_hit"]
        assert attempts == []
