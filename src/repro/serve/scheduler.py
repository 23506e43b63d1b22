"""The async scheduler: a bounded worker pool over the job store.

Workers pull from a priority heap (higher priority first, FIFO within a
priority).  When the job at the head carries a batch plan, the claim
drains every queued job sharing its group key (up to ``batch_size``) and
solves them in one coalesced
:func:`repro.apps.ignition0d.run_ignition0d_batch` call, demultiplexing
per-job results; everything else runs alone through the supervised
runner (:func:`repro.resilience.runner.run_supervised` — retries,
checkpoint/resume, fault-injection passthrough).

Two isolation rules keep concurrent jobs honest:

* **fault jobs run exclusively.**  The fault injector
  (:mod:`repro.resilience.faults`) arms *process-global* state; a clean
  job running beside an armed plan could absorb the fault.  Clean jobs
  hold a shared lock, fault jobs the exclusive side.
* **results are cached after, checked before.**  Every run re-checks
  the content cache at execution time, so a duplicate submitted while
  its twin was queued is answered from the twin's stored result instead
  of recomputed.

Per-tenant observability lands on the metrics registry (schema-1 export
via :mod:`repro.obs.export`): ``serve.queue_seconds`` /
``serve.run_seconds`` histograms (a batched member observes its
amortized share of the batch wall-clock; the raw batch time lands once
in ``serve.batch_seconds``), ``serve.jobs_done`` / ``_failed`` /
``serve.cache_hits`` / ``_misses`` / ``serve.batched_jobs`` counters,
and the batch-occupancy histogram.
"""

from __future__ import annotations

import heapq
import os
import threading
import time
from contextlib import ExitStack, contextmanager
from typing import Any, Iterable

from repro.mpi.perfmodel import LOCALHOST, MachineModel
from repro.obs import trace as _trace
from repro.obs.export import export_chrome_trace
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.resilience.runner import run_supervised
from repro.serve import jobs as J
from repro.serve.batching import BatchPlan
from repro.serve.cache import ResultCache
from repro.serve.jobs import JobStore, jsonable
from repro.util.logging import get_logger

_log = get_logger("serve.scheduler")

#: histogram edges for batch occupancy (jobs per coalesced solve)
_OCCUPANCY_EDGES = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


class _FaultGate:
    """Shared/exclusive lock: clean jobs share, fault jobs exclude.

    Writer-priority so a queued fault job is not starved by a stream of
    clean jobs.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._waiting_writers = 0

    @contextmanager
    def shared(self):
        with self._cond:
            while self._writer or self._waiting_writers:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                self._cond.notify_all()

    @contextmanager
    def exclusive(self):
        with self._cond:
            self._waiting_writers += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
                self._writer = True
            finally:
                self._waiting_writers -= 1
        try:
            yield
        finally:
            with self._cond:
                self._writer = False
                self._cond.notify_all()


class Scheduler:
    """Bounded worker pool executing jobs from a :class:`JobStore`."""

    def __init__(self, store: JobStore, cache: ResultCache, *,
                 workers: int = 2, batch_size: int = 8,
                 classes: Iterable | None = None,
                 registry: MetricsRegistry | None = None,
                 machine: MachineModel = LOCALHOST) -> None:
        self.store = store
        self.cache = cache
        self.workers = max(1, int(workers))
        self.batch_size = max(1, int(batch_size))
        self.machine = machine
        self.registry = registry if registry is not None else get_registry()
        self._classes = list(classes) if classes is not None else None
        self._cond = threading.Condition()
        self._heap: list[tuple[int, int, str]] = []  # (-priority, seq, id)
        self._plans: dict[str, BatchPlan] = {}
        self._seq = 0
        self._active = 0
        self._stopping = False
        self._threads: list[threading.Thread] = []
        self._gate = _FaultGate()

    # -- lifecycle --------------------------------------------------------
    @property
    def running(self) -> bool:
        return bool(self._threads)

    def start(self) -> None:
        with self._cond:
            if self._threads:
                return
            self._stopping = False
            self._threads = [
                threading.Thread(target=self._worker, daemon=True,
                                 name=f"serve-worker-{i}")
                for i in range(self.workers)]
        for t in self._threads:
            t.start()

    def stop(self) -> None:
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
        for t in self._threads:
            t.join()
        self._threads = []

    # -- queue ------------------------------------------------------------
    def enqueue(self, job_id: str, priority: int = 0,
                plan: BatchPlan | None = None) -> None:
        self.enqueue_many([(job_id, priority, plan)])

    def enqueue_many(self, entries: Iterable[
            tuple[str, int, BatchPlan | None]]) -> None:
        """Admit several jobs under one lock so a sweep's batchable
        members are all visible before any worker claims the first."""
        with self._cond:
            for job_id, priority, plan in entries:
                heapq.heappush(self._heap,
                               (-int(priority), self._seq, job_id))
                self._seq += 1
                if plan is not None:
                    self._plans[job_id] = plan
            self._cond.notify_all()

    def cancel(self, job_id: str) -> bool:
        """Cancel a still-queued job.  False once it started running."""
        with self._cond:
            record = self.store.transition(
                job_id, (J.QUEUED,), state=J.CANCELLED,
                finished=time.time())
            if record is None:
                return False
            self._heap = [e for e in self._heap if e[2] != job_id]
            heapq.heapify(self._heap)
            self._plans.pop(job_id, None)
            return True

    def drain(self, timeout: float | None = None) -> bool:
        """Block until the queue is empty and no worker is busy."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self._heap or self._active:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._cond.wait(remaining)
            return True

    def queue_depth(self) -> int:
        with self._cond:
            return len(self._heap)

    def queued_ids(self) -> set[str]:
        with self._cond:
            return {e[2] for e in self._heap}

    # -- worker loop ------------------------------------------------------
    def _worker(self) -> None:
        while True:
            with self._cond:
                while not self._stopping and not self._heap:
                    self._cond.wait()
                if self._stopping:
                    return
                group = self._claim_locked()
                self._active += 1
            try:
                self._execute(group)
            except Exception:
                _log.exception("worker crashed executing %s", group)
                for job_id in group:
                    self.store.transition(
                        job_id, (J.QUEUED, J.RUNNING), state=J.FAILED,
                        finished=time.time(), error="internal worker error")
            finally:
                with self._cond:
                    self._active -= 1
                    self._cond.notify_all()

    def _claim_locked(self) -> list[str]:
        """Pop the head job; drain queued batch-mates behind it."""
        _, _, head = heapq.heappop(self._heap)
        plan = self._plans.get(head)
        if plan is None:
            return [head]
        mates = [e for e in self._heap
                 if self._plans.get(e[2]) is not None
                 and self._plans[e[2]].group_key == plan.group_key]
        mates.sort()
        take = [e[2] for e in mates[:self.batch_size - 1]]
        if take:
            taken = set(take)
            self._heap = [e for e in self._heap if e[2] not in taken]
            heapq.heapify(self._heap)
        return [head] + take

    # -- execution --------------------------------------------------------
    def _execute(self, group: list[str]) -> None:
        started: list[tuple[str, Any]] = []
        now = time.time()
        for job_id in group:
            record = self.store.transition(
                job_id, (J.QUEUED,), state=J.RUNNING, started=now)
            if record is None:  # cancelled between claim and start
                self._plans.pop(job_id, None)
                continue
            self.registry.histogram(
                "serve.queue_seconds",
                tenant=record.tenant).observe(now - record.created)
            started.append((job_id, record))
        if not started:
            return

        # execution-time cache check: answer duplicates from the twin
        misses: list[tuple[str, Any]] = []
        for job_id, record in started:
            entry = self.cache.get(record.cache_key) \
                if record.cache_key else None
            if entry is not None:
                self._finish_cached(job_id, record, entry)
            else:
                if record.cache_key:
                    self.registry.counter(
                        "serve.cache_misses", tenant=record.tenant).inc()
                misses.append((job_id, record))
        if not misses:
            return
        if len(misses) > 1:
            self._run_batch(misses)
        else:
            self._run_single(*misses[0])

    def _finish_cached(self, job_id: str, record: Any,
                       entry: dict[str, Any]) -> None:
        self._finish_done(job_id, record, J.result_payload(
            job_id, entry["result"], cache_hit=True), cache_hit=True)
        self.registry.counter("serve.cache_hits",
                              tenant=record.tenant).inc()

    # -- distributed-trace plumbing ---------------------------------------
    def _write_trace_artifact(self, job_id: str, record: Any,
                              extra_ids: tuple[str, ...] = ()) -> None:
        """Export the job's slice of the session trace next to its
        document.

        Every span the job caused carries its ``trace_id`` (the worker
        thread's trace context flows through the supervisor into the
        backend — rank threads re-establish it; ``mp`` workers ship it
        home in their span args), so one filter over the merged session
        events recovers the scheduler → supervisor → rank tree even
        while concurrent jobs interleave.  ``extra_ids`` links batch
        members to their shared ``serve.batch`` span.
        """
        tid = getattr(record, "trace_id", "")
        if not (_trace.on and tid):
            return
        ids = {tid, *extra_ids}
        evs = [e for e in _trace.events()
               if e.args and e.args.get("trace_id") in ids]
        if not evs:
            return
        path = self.store.trace_path(job_id)
        try:
            export_chrome_trace(path, evs)
        except OSError:  # a lost artifact must not fail a finished job
            return
        self.store.transition(job_id, (J.DONE, J.FAILED), trace_path=path)

    def _run_single(self, job_id: str, record: Any) -> None:
        tid = getattr(record, "trace_id", "")
        if not (_trace.on and tid):
            self._run_single_impl(job_id, record)
            return
        with _trace.context(trace_id=tid, job=job_id):
            with _trace.span("serve.job", "serve", job=job_id,
                             tenant=record.tenant):
                self._run_single_impl(job_id, record)
        self._write_trace_artifact(job_id, record)

    def _run_single_impl(self, job_id: str, record: Any) -> None:
        spec = self.store.get_spec(job_id)
        script = spec.effective_script()
        gate = self._gate.exclusive if spec.fault else self._gate.shared
        t0 = time.perf_counter()
        try:
            with gate():
                run = run_supervised(
                    script, self._classes, nprocs=spec.nprocs,
                    retries=spec.retries, backoff=spec.backoff,
                    machine=self.machine, fault=spec.fault or None,
                    backend=spec.backend or None)
        except Exception as exc:
            self._finish_failed(job_id, record,
                                f"{type(exc).__name__}: {exc}")
            return
        elapsed = time.perf_counter() - t0
        self.registry.histogram("serve.run_seconds",
                                tenant=record.tenant).observe(elapsed)
        if not run.ok:
            self._finish_failed(job_id, record,
                                "; ".join(run.failures) or "run failed",
                                attempts=run.attempts,
                                restarts=run.restarts)
            return
        value = run.results[0] if spec.nprocs == 1 else run.results
        self._finish_done(job_id, record, J.result_payload(
            job_id, self._encode(record, value),
            supervisor=run.report.to_json()),
            attempts=run.attempts, restarts=run.restarts)

    def _run_batch(self, misses: list[tuple[str, Any]]) -> None:
        from repro.apps.ignition0d import run_ignition0d_batch

        plans = [self._plans[job_id] for job_id, _ in misses]
        settings = plans[0].settings
        conditions = [p.condition for p in plans]
        # the coalesced solve is one piece of work shared by every
        # member: it runs under its own batch trace id, and each
        # member's artifact filter includes it (linking job -> batch)
        batch_tid = f"tr-batch-{os.urandom(6).hex()}" if _trace.on else ""
        t0 = time.perf_counter()
        try:
            with self._gate.shared(), ExitStack() as stack:
                if batch_tid:
                    stack.enter_context(_trace.context(trace_id=batch_tid))
                    stack.enter_context(_trace.span(
                        "serve.batch", "serve",
                        jobs=[j for j, _ in misses],
                        occupancy=len(misses)))
                results = run_ignition0d_batch(conditions, **settings)
        except Exception as exc:
            # bit-equivalence fallback: the coalesced path failed, run
            # each member alone through the full framework
            _log.warning("batched solve failed (%s: %s); falling back to "
                         "sequential runs", type(exc).__name__, exc)
            for job_id, record in misses:
                self._run_single(job_id, record)
            return
        if len(results) != len(misses):
            # a demux mismatch must never strand jobs in RUNNING: treat
            # it like any other batch failure and solve sequentially
            _log.warning("batched solve returned %d results for %d "
                         "jobs; falling back to sequential runs",
                         len(results), len(misses))
            for job_id, record in misses:
                self._run_single(job_id, record)
            return
        elapsed = time.perf_counter() - t0
        occupancy = len(misses)
        self.registry.histogram("serve.batch_occupancy",
                                edges=_OCCUPANCY_EDGES).observe(occupancy)
        # the batch wall-clock is recorded once; each member observes its
        # amortized share so per-tenant run-time histograms stay
        # comparable with sequential execution of the same jobs
        self.registry.histogram("serve.batch_seconds").observe(elapsed)
        share = elapsed / occupancy
        for (job_id, record), result in zip(misses, results):
            self.registry.histogram("serve.run_seconds",
                                    tenant=record.tenant).observe(share)
            self._finish_done(job_id, record, J.result_payload(
                job_id, self._encode(record, result, batched=True),
                batched=True, batch_size=occupancy), batched=True,
                batch_size=occupancy)
            member_tid = getattr(record, "trace_id", "")
            if _trace.on and member_tid:
                _trace.instant("serve.job_done", "serve",
                               trace_id=member_tid, job=job_id,
                               batch_trace_id=batch_tid,
                               batch_size=occupancy)
                self._write_trace_artifact(job_id, record,
                                           extra_ids=(batch_tid,))
            self.registry.counter("serve.batched_jobs",
                                  tenant=record.tenant).inc()

    def _encode(self, record: Any, value: Any, **meta: Any) -> Any:
        """``value`` made JSON-safe once, for the cache entry (when the
        job has a key) and the job's document alike."""
        if not record.cache_key:
            return jsonable(value)
        return self.cache.put(record.cache_key, value,
                              job_id=record.job_id, **meta)["result"]

    def _finish_done(self, job_id: str, record: Any,
                     payload: dict[str, Any], **changes: Any) -> None:
        """Land ``payload`` and ``done`` in one write."""
        self.store.transition(job_id, (J.RUNNING,), state=J.DONE,
                              finished=time.time(), result=payload, **changes)
        self._plans.pop(job_id, None)
        self.registry.counter("serve.jobs_done", tenant=record.tenant).inc()

    def _finish_failed(self, job_id: str, record: Any, error: str,
                       attempts: int = 0, restarts: int = 0) -> None:
        self.store.transition(job_id, (J.RUNNING,), state=J.FAILED,
                              finished=time.time(), error=error,
                              attempts=attempts, restarts=restarts)
        self._plans.pop(job_id, None)
        self.registry.counter("serve.jobs_failed",
                              tenant=record.tenant).inc()
        _log.warning("job %s failed: %s", job_id, error)
