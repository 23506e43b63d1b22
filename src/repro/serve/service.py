"""The multi-tenant simulation service facade.

One object ties the subsystem together: a :class:`~repro.serve.jobs.JobStore`
for durability, a :class:`~repro.serve.cache.ResultCache` for
content-addressed reuse, a :class:`~repro.serve.scheduler.Scheduler` for
execution, and the metrics registry for per-tenant observability.  The
CLI (:mod:`repro.serve.__main__`) is a thin shell over this class;
library users drive it directly::

    with SimulationService(root) as svc:
        job_id = svc.submit(script, params={"Initializer.T0": 1100.0},
                            tenant="alice")
        svc.drain()
        result = svc.result(job_id)["result"]

Everything is filesystem-backed under ``root`` — no sockets, no
daemons — so separate CLI invocations (submit now, run later, query
after) compose through the store, and tests stay hermetic.

*Admission control*: before a job is enqueued, the assembly pass
(:func:`repro.analysis.contracts.check_job`) statically validates the
script and the overrides against the declarations of the classes the
service runs with (``classes``, default the stock repository).
Error findings (broken wiring such as an unknown class or a duplicate
``connect``, unknown parameter, out-of-range value, wrong type, missing
required parameter, unconnected required port, unknown execution
backend) fail the job instantly — the findings land on the job record,
a per-tenant ``serve.rejected`` counter ticks, and no worker ever sees
it.
Warning-severity findings are recorded on the job and it proceeds.
Admitted override values are coerced to their declared parameter types,
so ``"1100"`` and ``1100.0`` share one cache address.  Pass
``admission=False`` to restore the old trust-the-caller behavior.

*Starting the workers* (``autostart=True`` or an explicit
:meth:`SimulationService.start`) first *recovers* the store: jobs found
``queued`` are re-enqueued; jobs found ``running`` (a previous process
died mid-run) are re-queued too — the supervised runner makes
re-execution safe, and the content cache makes it cheap when the result
actually landed.  A service opened with ``autostart=False`` for
read-only access (status / result / stats / cancel) never mutates other
jobs' states, so querying the store is safe while another process is
executing it.
"""

from __future__ import annotations

import itertools
import os
import time
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from repro.errors import ReproError, ServeError
from repro.obs import trace as _trace
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.serve import jobs as J
from repro.serve.jobs import JobSpec, JobStore

if TYPE_CHECKING:
    from repro.analysis.contracts import AssemblyModel
    from repro.serve.batching import BatchPlan


class SimulationService:
    """Submit / schedule / batch / cache / observe (see module doc)."""

    def __init__(self, root: str, *, workers: int = 2, batch_size: int = 8,
                 classes: Iterable | None = None,
                 registry: MetricsRegistry | None = None,
                 fingerprint: Mapping[str, Any] | None = None,
                 autostart: bool = True, admission: bool = True) -> None:
        # The constructor imports the machinery it builds: admission,
        # the cache and the scheduler (which brings the batching planner
        # and the exporters).  Naming this class loads none of it, and
        # the imports inside the methods below only look up what this
        # constructor loaded, so a submit imports nothing.
        from repro.analysis.contracts import manifests_of
        from repro.serve.cache import ResultCache
        from repro.serve.scheduler import Scheduler

        self.root = root
        #: static admission control: run the assembly pass over
        #: (script + overrides) at submit; error findings fail the job
        #: instantly with the findings on the record — no worker runs.
        self.admission = bool(admission)
        classes = list(classes) if classes is not None else None
        #: the contracts admission checks against: those of the classes
        #: the workers run with (the stock repository when None)
        self.manifests = manifests_of(classes)
        os.makedirs(root, exist_ok=True)
        self.store = JobStore(os.path.join(root, "jobs"))
        self.cache = ResultCache(os.path.join(root, "cache"),
                                 fingerprint=fingerprint)
        self.registry = registry if registry is not None else get_registry()
        self.scheduler = Scheduler(self.store, self.cache, workers=workers,
                                   batch_size=batch_size, classes=classes,
                                   registry=self.registry)
        if autostart:
            self.start()

    # -- lifecycle --------------------------------------------------------
    def start(self) -> list[str]:
        """Recover the store, then start the worker pool.

        Recovery only happens here — never on read-only access — so a
        status/result/stats query cannot re-queue a job another process
        is running.  Returns the recovered (re-enqueued) job ids.
        """
        if self.scheduler.running:  # never re-queue our own live jobs
            return []
        recovered = self._recover()
        self.scheduler.start()
        return recovered

    def _recover(self) -> list[str]:
        """Re-enqueue jobs a previous process left unfinished."""
        pending: list[tuple[str, int, BatchPlan | None]] = []
        known = self.scheduler.queued_ids()
        for record in self.store.records():
            if record.job_id in known:  # submitted by this process
                continue
            if record.state == J.RUNNING:
                record = self.store.transition(
                    record.job_id, (J.RUNNING,), state=J.QUEUED,
                    started=0.0)
                if record is None:
                    continue
            if record.state != J.QUEUED:
                continue
            try:
                spec = self.store.get_spec(record.job_id)
            except ServeError:
                continue
            pending.append((record.job_id, record.priority,
                            self._plan(spec)))
        if pending:
            self.scheduler.enqueue_many(pending)
        return [job_id for job_id, _, _ in pending]

    def close(self) -> None:
        self.scheduler.stop()

    def __enter__(self) -> "SimulationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- submission -------------------------------------------------------
    @staticmethod
    def _plan(spec: JobSpec, model: AssemblyModel | None = None
              ) -> BatchPlan | None:
        """Fault-injected, multi-rank, or non-default-backend jobs never
        batch; the planner decides for the rest.  (A coalesced batch is
        solved once by the worker thread — routing it through another
        execution backend would silently change what the tenant asked
        for.)"""
        from repro.serve.batching import plan_for

        if spec.fault or spec.nprocs != 1 or spec.backend:
            return None
        return plan_for(model or spec.script, spec.params)

    @staticmethod
    def _canonical_backend(backend: str) -> str:
        """The registry-canonical backend name ("" stays "" — the
        service default).  Unknown names raise; :meth:`_submit_one`
        turns that into an RA419 rejection instead of propagating."""
        backend = str(backend or "").strip()
        if not backend:
            return ""
        from repro.exec import resolve_name
        return resolve_name(backend)

    def submit(self, script: str, *,
               params: Mapping[str, Any] | None = None,
               tenant: str = "default", priority: int = 0, nprocs: int = 1,
               retries: int = 0, backoff: float = 0.0, fault: str = "",
               use_cache: bool = True, backend: str = "") -> str:
        """Register one job; returns its id.  A content-cache hit at
        submit time completes the job immediately (no queue round
        trip)."""
        job_id, pending = self._submit_one(
            script, params=params, tenant=tenant, priority=priority,
            nprocs=nprocs, retries=retries, backoff=backoff, fault=fault,
            use_cache=use_cache, backend=backend)
        if pending is not None:
            self.scheduler.enqueue_many([pending])
        return job_id

    @staticmethod
    def _mint_trace_id() -> str:
        """A fresh distributed-trace id (stamped on the job record and
        carried by every span the job causes)."""
        return f"tr-{os.urandom(6).hex()}"

    def _submit_one(self, script: str, *, params=None, tenant="default",
                    priority=0, nprocs=1, retries=0, backoff=0.0, fault="",
                    use_cache=True, backend="",
                    model: AssemblyModel | None = None) -> tuple[
                        str, tuple[str, int, BatchPlan | None] | None]:
        """Register one job.  Admission, coercion and the batch plan all
        read ``model``, the script parsed once (here when None)."""
        from repro.analysis.contracts import (check_job, coerce_job_params,
                                              model_from_script)
        from repro.analysis.findings import Severity

        trace_id = self._mint_trace_id()
        overrides = J.canonical_params(params)
        if model is None:
            model = model_from_script(script, "<job>", self.manifests)
        findings: list = []
        errors: list = []
        if self.admission:
            findings = check_job(model, overrides,
                                 backend=str(backend or ""))
            errors = [f for f in findings if f.severity >= Severity.ERROR]
            if not errors:
                # coerce override values to their declared parameter
                # types so "1100" and 1100.0 key the cache identically
                overrides = coerce_job_params(model, overrides)
        try:
            backend = self._canonical_backend(backend)
        except ReproError:
            # unknown backend: with admission on, the RA419 finding has
            # already put the job on the rejection path below; with
            # admission off, keep the verbatim name and let the
            # scheduler's own resolve surface the error at run time.
            backend = str(backend or "").strip()
        spec = JobSpec(script=script, params=overrides,
                       tenant=str(tenant), priority=int(priority),
                       nprocs=int(nprocs), retries=int(retries),
                       backoff=float(backoff), fault=str(fault or ""),
                       use_cache=bool(use_cache),
                       backend=backend)
        if errors:
            now = time.time()
            first = errors[0]
            record = self.store.new_job(
                spec, state=J.FAILED, started=now, finished=now,
                rejected=True, backend=spec.backend, trace_id=trace_id,
                findings=[f.to_dict() for f in findings],
                error=(f"admission: {len(errors)} contract error(s); "
                       f"first: {first.code} {first.message}"))
            self.registry.counter("serve.jobs_submitted",
                                  tenant=spec.tenant).inc()
            self.registry.counter("serve.rejected",
                                  tenant=spec.tenant).inc()
            return record.job_id, None
        plan = self._plan(spec, model)
        # fault-injected runs are experiments on the failure path, not
        # reusable results: exclude them from the cache entirely
        key = self.cache.key(script, spec.params, nprocs=spec.nprocs,
                             backend=spec.backend) \
            if spec.use_cache and not spec.fault else ""
        record = self.store.new_job(
            spec, cache_key=key, signature=plan.group_key if plan else "",
            backend=spec.backend, trace_id=trace_id,
            findings=[f.to_dict() for f in findings])
        self.registry.counter("serve.jobs_submitted", tenant=spec.tenant).inc()
        if _trace.on:
            _trace.instant("serve.submit", "serve", trace_id=trace_id,
                           job=record.job_id, tenant=spec.tenant)
        entry = self.cache.get(key) if key else None
        if entry is not None:
            now = time.time()
            self.store.transition(
                record.job_id, (J.QUEUED,), state=J.DONE, started=now,
                finished=now, cache_hit=True, result=J.result_payload(
                    record.job_id, entry["result"], cache_hit=True))
            self.registry.counter("serve.cache_hits",
                                  tenant=spec.tenant).inc()
            self.registry.counter("serve.jobs_done",
                                  tenant=spec.tenant).inc()
            return record.job_id, None
        return record.job_id, (record.job_id, spec.priority, plan)

    def sweep(self, script: str, grid: Mapping[str, Sequence[Any]], *,
              params: Mapping[str, Any] | None = None,
              **submit_kwargs: Any) -> list[str]:
        """Submit the cartesian product of ``grid`` as one job family.

        ``grid`` maps override keys (``"Initializer.T0"``) to value
        lists; ``params`` holds overrides common to every point;
        ``submit_kwargs`` are :meth:`submit`'s.  The script is parsed
        once, and all jobs are enqueued under one lock so the batching
        planner sees the whole family before the first claim.
        """
        from repro.analysis.contracts import model_from_script

        if not grid:
            raise ServeError("sweep needs a non-empty grid")
        keys = sorted(grid)
        model = model_from_script(script, "<job>", self.manifests)
        job_ids: list[str] = []
        pending: list[tuple[str, int, BatchPlan | None]] = []
        for values in itertools.product(*(grid[k] for k in keys)):
            point = dict(params or {})
            point.update(dict(zip(keys, values)))
            job_id, entry = self._submit_one(script, params=point,
                                             model=model, **submit_kwargs)
            job_ids.append(job_id)
            if entry is not None:
                pending.append(entry)
        if pending:
            self.scheduler.enqueue_many(pending)
        return job_ids

    # -- queries ----------------------------------------------------------
    def status(self, job_id: str) -> dict[str, Any]:
        return self.store.get_record(job_id).to_json()

    def result(self, job_id: str) -> dict[str, Any]:
        """The stored result payload of a job (only a done job has one)."""
        try:
            return self.store.read_result(job_id)
        except ServeError:
            record = self.store.get_record(job_id)
        if record.state == J.FAILED:
            raise ServeError(f"job {job_id} failed: {record.error}")
        raise ServeError(f"job {job_id} is {record.state}, not done")

    def cancel(self, job_id: str) -> bool:
        self.store.get_record(job_id)  # raise ServeError on unknown id
        return self.scheduler.cancel(job_id)

    def drain(self, timeout: float | None = None) -> bool:
        return self.scheduler.drain(timeout)

    # -- observability ----------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Service-level statistics: a schema-1 metrics envelope (the
        registry's ``serve.*`` records) plus durable aggregates derived
        from the job store, per tenant and total."""
        from repro.obs.export import metrics_payload

        records = self.store.records()
        by_state: dict[str, int] = {s: 0 for s in J.STATES}
        tenants: dict[str, dict[str, Any]] = {}
        occupancies: list[int] = []
        for r in records:
            by_state[r.state] = by_state.get(r.state, 0) + 1
            t = tenants.setdefault(r.tenant, {
                "submitted": 0, "done": 0, "failed": 0, "cancelled": 0,
                "rejected": 0, "cache_hits": 0, "batched": 0})
            t["submitted"] += 1
            if r.rejected:
                t["rejected"] += 1
            if r.state == J.DONE:
                t["done"] += 1
            elif r.state == J.FAILED:
                t["failed"] += 1
            elif r.state == J.CANCELLED:
                t["cancelled"] += 1
            if r.cache_hit:
                t["cache_hits"] += 1
            if r.batched:
                t["batched"] += 1
                occupancies.append(r.batch_size)
        for t in tenants.values():
            finished = t["done"] + t["failed"]
            t["cache_hit_ratio"] = (t["cache_hits"] / finished
                                    if finished else 0.0)
        traces = {
            r.job_id: {"trace_id": r.trace_id,
                       "artifact": r.trace_path or None}
            for r in records
            if r.trace_id and r.state in J.TERMINAL
        }
        payload = metrics_payload(self.registry, prefix="serve.")
        payload.update({
            "traces": traces,
            "jobs": {"total": len(records), **by_state},
            "tenants": tenants,
            "cache": {
                "entries": len(self.cache),
                "hits": sum(t["cache_hits"] for t in tenants.values()),
            },
            "batching": {
                "batched_jobs": sum(t["batched"]
                                    for t in tenants.values()),
                "mean_occupancy": (sum(occupancies) / len(occupancies)
                                   if occupancies else 0.0),
            },
            "queue_depth": self.scheduler.queue_depth(),
        })
        return payload


def load_script(script: str | None, script_path: str | None) -> str:
    """Resolve the script text from inline text or a file path."""
    if (script is None) == (script_path is None):
        raise ServeError("exactly one of script / script_path is required")
    if script is not None:
        return script
    try:
        with open(script_path, encoding="utf-8") as fh:  # type: ignore[arg-type]
            return fh.read()
    except OSError as exc:
        raise ServeError(f"cannot read script {script_path!r}: {exc}") \
            from None


__all__ = ["SimulationService", "load_script"]
