"""The ``mp`` backend: real worker processes, pipes and shared memory.

Where the ``threads`` backend emulates "P processors" with rank-threads
and virtual clocks, this backend actually forks P worker processes —
real cores, real wall-clock speedups, real private address spaces (the
property the paper's SCMD mode takes for granted and rank-threads
violate).  The pieces:

* **Transport** — each rank owns a ``multiprocessing.Queue`` inbox;
  envelopes are produced by :func:`repro.exec.shm.encode_message`, so
  halo- and reduction-sized messages ride the pipe in-band while bulk
  array payloads move through shared-memory segments with a zero-copy
  receive.  Segments are named by world and rank; what a killed or
  aborted world leaves behind is unlinked when :meth:`MPBackend.run`
  returns, not when the launching interpreter exits.
* **Communicator** — the same :class:`repro.mpi.comm.Comm` as on every
  backend; :class:`_Station` is the transport behind it (the calls are
  listed on ``Comm``), and its rendezvous is a gather-to-local-root /
  post-back-shares exchange.  Because the ``finish`` reduction runs
  exactly once (on comm rank 0, in sorted rank order), collective
  results are bit-identical with the threads backend.
* **Failure paths** — a crashed rank pickles its traceback *text* back
  to the parent (:class:`~repro.mpi.launcher.RemoteRankError`) and trips
  a shared abort event so its peers raise
  :class:`~repro.errors.CommAbortedError` instead of deadlocking;
  silently-dead processes (``os.kill``, segfault) are detected by the
  parent's reaper and synthesized into the same
  :class:`~repro.mpi.launcher.RankFailure`.
* **Fault injection** — workers inherit the armed plan *and counters*
  at fork (so ``kill_max_fires`` survives a supervised restart) and
  ship their final counters home; the parent folds the per-worker
  deltas back into its own counters, keeping
  :func:`repro.resilience.faults.injected_counts` accurate across
  process boundaries.

The runtime race sanitizer is thread-backend-only by construction — its
vector-clock shadow table assumes a shared address space.  Selecting
``mp`` while ``REPRO_TSAN`` is armed degrades to a
:class:`RuntimeWarning` and runs unsanitized.

Start method: ``fork`` (required — SCMD ``main`` callables are
closures, which cannot cross a ``spawn`` boundary).  Platforms without
``fork`` report unavailable.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import queue as _queue
import time
import traceback
import warnings
from typing import Any, Callable, Sequence

from repro.errors import CommAbortedError, MPIError
from repro.exec import shm as _shm
from repro.exec.base import ExecBackend
from repro.mpi.comm import (WORLD_ID, Comm, _Message, _match,
                            _POLL_INTERVAL, _run_finish)
from repro.mpi.perfmodel import MachineModel, LOCALHOST
from repro.mpi import sanitizer as _tsan
from repro.obs import profiler as _profiler
from repro.obs import trace as _obs
from repro.obs.metrics import get_registry as _obs_registry
from repro.resilience import faults as _faults
from repro.util import logging as rlog
from repro.util.options import env_flag

#: grace period between "worker process is dead" and "synthesize its
#: failure" — covers the window where its last record is still in flight.
_DEATH_GRACE = 1.0
#: numbers the worlds this process launches (``next`` on a count is
#: atomic): with the pid it makes a world's segment names its own.
_WORLD_SERIALS = itertools.count()


class _Station:
    """One worker's post office — its inbox, its peers' inboxes, the
    abort flag and the stash of not-yet-consumed envelopes — and the
    ``mp`` backend's transport behind :class:`~repro.mpi.comm.Comm`.

    Envelope kinds on an inbox (all payloads via
    :func:`~repro.exec.shm.encode_message`):

    * ``("p2p", comm_id, (source, tag, nbytes, avail_time), env)`` —
      env decodes to the payload;
    * ``("coll", comm_id, seq, env)`` — a member's contribution to the
      comm's local root; decodes to ``(rank, contribution, clock)``;
    * ``("collr", comm_id, seq, env)`` — the root's post to one member;
      decodes to ``(share, exit_clock)``.

    Out-of-order arrival across communicators/sequences is absorbed by
    the stash; a matching wait never consumes someone else's envelope.
    """

    def __init__(self, rank: int, inboxes: list, abort_evt,
                 machine: MachineModel, segment_prefix: str) -> None:
        self.rank = rank
        self.inboxes = inboxes
        self.machine = machine
        self.segment_names = _shm.segment_names(segment_prefix)
        self._abort_evt = abort_evt
        self._p2p: dict[str, list[_Message]] = {}
        self._coll: dict[tuple[str, int], dict[int, tuple[Any, float]]] = {}
        self._collr: dict[tuple[str, int], tuple[Any, float]] = {}

    def check_alive(self) -> None:
        if self._abort_evt.is_set():
            raise CommAbortedError("world aborted by a peer rank")

    def abort(self, reason: str) -> None:
        self._abort_evt.set()

    def pack(self, obj: Any) -> tuple[Any, int]:
        """``(envelope, nbytes)`` of ``obj``, its segment (if it needs
        one) named as this rank's."""
        return _shm.encode_message(obj, self.segment_names)

    discard = staticmethod(_shm.discard_message)

    def post(self, comm_id: str, dest: int, msg: _Message) -> None:
        self.inboxes[dest].put(
            ("p2p", comm_id,
             (msg.source, msg.tag, msg.nbytes, msg.avail_time), msg.payload))

    def _pump(self, timeout: float) -> None:
        """File inbox envelopes into the stash; wait up to ``timeout``
        for the first when none are ready."""
        inbox = self.inboxes[self.rank]
        try:
            item = inbox.get(timeout=timeout)
        except _queue.Empty:
            return
        while True:
            self._file(item)
            try:
                item = inbox.get_nowait()
            except _queue.Empty:
                return

    def _file(self, item: tuple) -> None:
        kind = item[0]
        if kind == "p2p":
            _, cid, header, env = item
            source, tag, nbytes, avail = header
            payload = _shm.decode_message(env)
            self._p2p.setdefault(cid, []).append(
                _Message(source, tag, payload, nbytes, avail))
        elif kind == "coll":
            _, cid, seq, env = item
            rank, contribution, clock = _shm.decode_message(env)
            self._coll.setdefault((cid, seq), {})[rank] = (contribution,
                                                           clock)
        elif kind == "collr":
            _, cid, seq, env = item
            self._collr[(cid, seq)] = _shm.decode_message(env)
        else:  # pragma: no cover - protocol bug guard
            raise MPIError(f"unknown mp envelope kind {kind!r}")

    # -- waits (all poll the abort flag) ----------------------------------
    def match(self, comm_id: str, me: int, source: int, tag: int,
              remove: bool, block: bool) -> _Message | None:
        if not block:
            self.check_alive()
            self._pump(0.0)
        while True:
            msg = _match(self._p2p.get(comm_id, []), source, tag, remove)
            if msg is not None or not block:
                return msg
            self.check_alive()
            self._pump(_POLL_INTERVAL)

    def rendezvous(self, comm_id: str, seq: int, rank: int,
                   members: list[int], contribution: Any, clock: float,
                   finish: Callable[[dict[int, Any]], tuple[Any, float]],
                   label: str) -> tuple[Any, float]:
        """Every member ships its contribution (and entry clock) to comm
        rank 0, which runs ``finish`` and posts each member its own
        ``(share(member), exit_clock)`` — an ``alltoall`` row, a
        ``scatter`` item, ``None`` to the non-roots of a ``gather`` — not
        the whole outcome."""
        key = (comm_id, seq)
        if rank != 0:
            wire, _ = self.pack((rank, contribution, clock))
            self.inboxes[members[0]].put(("coll", comm_id, seq, wire))
            while key not in self._collr:
                self.check_alive()
                self._pump(_POLL_INTERVAL)
            return self._collr.pop(key)
        while len(self._coll.get(key, ())) < len(members) - 1:
            self.check_alive()
            self._pump(_POLL_INTERVAL)
        entries = self._coll.pop(key, {})
        entries[0] = (contribution, clock)
        share, exit_clock = _run_finish(entries, finish)
        for member in range(1, len(members)):
            wire, _ = self.pack((share(member), exit_clock))
            self.inboxes[members[member]].put(("collr", comm_id, seq, wire))
        return share(0), exit_clock


# ---------------------------------------------------------------- worker
def _obs_ship_enabled() -> bool:
    """``REPRO_OBS_SHIP=0`` disables worker observability shipping (the
    overhead bench uses it to isolate the shipping cost)."""
    return env_flag("REPRO_OBS_SHIP", True)


def _child_obs_setup(trace_ctx: dict | None) -> None:
    """Post-fork observability bootstrap for a worker rank.

    The fork hands the worker the parent's trace buffers, metrics
    values, and profiler ring *by value* — all of which the parent will
    keep and re-absorb, so the worker must drop them or every parent
    event would come home duplicated.  The session origin ``_t0`` and
    the enabled flags are kept (that is what makes the worker's events
    land on the parent's timeline), the launching thread's trace
    context is re-established, and the sampler thread — which did not
    survive the fork — is restarted fresh when ``REPRO_PROFILE`` armed
    the parent.
    """
    if _obs.on:
        _obs.child_reset()
        _obs_registry().reset()
        if trace_ctx:
            _obs._tls.ctx = dict(trace_ctx)
    if _profiler.on and _obs_ship_enabled():
        inherited = _profiler.get()
        _profiler.start(
            interval=inherited.interval if inherited is not None else None)


def _ship_obs(rank: int, names) -> Any:
    """Drain this worker's observability state into a blob envelope
    (``None`` when there is nothing to ship or shipping is disabled).

    The payload — span events, a metrics-registry snapshot, rank-tagged
    profiler samples — is pickled once and spooled through the shm
    transport when large, so a trace-heavy rank cannot clog the result
    pipe; the segment takes the next of ``names``."""
    if not _obs_ship_enabled():
        return None
    prof = _profiler.stop() if _profiler.on else None
    if not _obs.on and prof is None:
        return None
    payload: dict[str, Any] = {"rank": rank}
    if _obs.on:
        payload["events"] = _obs.drain_events()
        payload["metrics"] = _obs_registry().snapshot()
    if prof is not None:
        payload["profile"] = [s._replace(rank=rank)
                              for s in prof.samples()]
    try:
        return _shm.encode_blob(
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL),
            names=names)
    except Exception:  # unpicklable span arg: drop the rank's payload
        return None


def _fold_obs(records: dict[int, tuple]) -> None:
    """Parent-side half of obs shipping: decode every worker's payload
    (always — an undecoded blob would leak its shm segment) and fold
    events, metrics, and profiler samples into this process's session."""
    for rank in sorted(records):
        env = records[rank][-1]
        if env is None:
            continue
        try:
            payload = pickle.loads(_shm.decode_blob(env))
        except Exception:
            continue
        evs = payload.get("events")
        if evs:
            _obs.absorb(evs, label=f"mp-rank-{payload.get('rank', rank)}")
        snap = payload.get("metrics")
        if snap:
            _obs_registry().merge_snapshot(snap)
        samples = payload.get("profile")
        if samples:
            prof = _profiler.get()
            if prof is not None:
                prof.absorb(samples)


def _worker(rank: int, nprocs: int, machine: MachineModel,
            main: Callable[..., Any], args: Sequence[Any],
            inboxes: list, result_q, abort_evt, segment_prefix: str,
            trace_ctx: dict | None = None) -> None:
    """Worker-process body for one rank (post-fork)."""
    # The sanitizer's shadow state is meaningless here: this process IS
    # the private address space.  Disarm locally (fork-isolated write).
    _tsan.deactivate()
    _child_obs_setup(trace_ctx)
    station = _Station(rank, inboxes, abort_evt, machine,
                       f"{segment_prefix}{rank}-")
    comm = Comm(station, WORLD_ID, rank, list(range(nprocs)))
    record: tuple
    with rlog.rank_context(rank):
        try:
            comm.reset_clock()  # don't charge fork/bootstrap time
            value = main(comm, *args)
            record = ("ok", rank, value, comm.clock, _counts())
        except CommAbortedError as exc:
            record = ("aborted", rank, str(exc), _counts())
        except BaseException as exc:  # noqa: BLE001 - report all
            abort_evt.set()
            record = ("err", rank, type(exc).__name__, str(exc),
                      traceback.format_exc(), _counts())
        obs_env = _ship_obs(rank, station.segment_names)
    record = record + (obs_env,)
    # Flush any still-buffered inter-rank messages before reporting:
    # Queue.put hands items to a feeder thread, and a receiver may be
    # blocked on something this rank sent just before finishing.
    for q in inboxes:
        q.close()
        q.join_thread()
    try:
        blob = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # unpicklable per-rank result
        blob = pickle.dumps(
            ("err", rank, type(exc).__name__,
             f"rank result is not picklable: {exc}",
             traceback.format_exc(), _counts(), obs_env),
            protocol=pickle.HIGHEST_PROTOCOL)
    result_q.put(blob)
    result_q.close()
    result_q.join_thread()
    # Hard exit: skip the parent's inherited atexit handlers (obs
    # flushers, bench ledger writers) — this is a rank, not the session.
    os._exit(0)


def _counts() -> dict | None:
    return _faults.snapshot_counts() if _faults.on else None


class MPBackend(ExecBackend):
    """P forked worker processes (see module docstring)."""

    name = "mp"

    def available(self) -> tuple[bool, str]:
        if "fork" not in multiprocessing.get_all_start_methods():
            return False, ("requires the 'fork' start method, which this "
                           "platform does not provide")
        return True, ""

    def run(self, nprocs: int, main: Callable[..., Any],
            args: Sequence[Any] = (), machine: MachineModel = LOCALHOST,
            ) -> tuple[list[Any], list[float]]:
        from repro.mpi.launcher import RankFailure, RemoteRankError

        if _tsan.on:
            warnings.warn(
                "REPRO_TSAN is armed but the race sanitizer is "
                "thread-backend only: its vector-clock shadow table needs "
                "the shared address space the 'mp' backend exists to "
                "remove. Running this world unsanitized — use "
                "backend='threads' to sanitize.",
                RuntimeWarning, stacklevel=3)

        ctx = multiprocessing.get_context("fork")
        # Spawn the resource tracker *before* forking so every worker
        # shares one tracker process — a worker's early exit cannot
        # unlink a sibling's in-flight segment, and segments stranded by
        # a killed *parent* are reclaimed when the whole family exits.
        from multiprocessing import resource_tracker
        resource_tracker.ensure_running()

        inboxes = [ctx.Queue() for _ in range(nprocs)]
        result_q = ctx.Queue()
        abort_evt = ctx.Event()
        fault_base = _counts()
        trace_ctx = _obs.current_context() if _obs.on else None
        segment_prefix = f"repro-{os.getpid()}-{next(_WORLD_SERIALS)}-"

        procs = [
            ctx.Process(target=_worker,
                        args=(rank, nprocs, machine, main, tuple(args),
                              inboxes, result_q, abort_evt, segment_prefix,
                              trace_ctx),
                        name=f"rank-{rank}", daemon=True)
            for rank in range(nprocs)
        ]
        for p in procs:
            p.start()

        records: dict[int, tuple] = {}
        dead_since: dict[int, float] = {}
        try:
            while len(records) < nprocs:
                try:
                    rec = pickle.loads(result_q.get(timeout=_POLL_INTERVAL))
                    records[rec[1]] = rec
                    continue
                except _queue.Empty:
                    pass
                now = time.monotonic()
                for rank, proc in enumerate(procs):
                    if rank in records or proc.is_alive():
                        continue
                    # Dead without a record: grace-wait for a final blob
                    # still in the pipe, then synthesize the failure.
                    first_seen = dead_since.setdefault(rank, now)
                    if now - first_seen < _DEATH_GRACE:
                        continue
                    abort_evt.set()
                    reason = (f"rank {rank} worker process died with exit "
                              f"code {proc.exitcode} before reporting a "
                              f"result")
                    records[rank] = (
                        "err", rank, "WorkerDied", reason,
                        f"WorkerDied: {reason} (killed or segfaulted; no "
                        f"Python traceback exists)", None, None)
        finally:
            for p in procs:
                p.join(timeout=5.0)
            for p in procs:
                if p.is_alive():
                    p.terminate()
                    p.join(timeout=1.0)
            for q in inboxes + [result_q]:
                q.cancel_join_thread()
                q.close()
            # Fold worker obs payloads before anything can raise (failed
            # runs keep their partial traces), then unlink what nobody
            # consumed: messages in flight to a killed or aborted rank
            # would otherwise outlive the world by the parent's lifetime.
            _fold_obs(records)
            _shm.sweep(segment_prefix)

        if _faults.on and fault_base is not None:
            _faults.merge_counts(
                fault_base,
                [r[-2] for r in records.values() if r[-2] is not None])

        failures: dict[int, BaseException] = {}
        for rank in sorted(records):
            rec = records[rank]
            if rec[0] == "err":
                failures[rank] = RemoteRankError(rec[2], rec[3], rec[4])
            elif rec[0] == "aborted":
                failures[rank] = CommAbortedError(rec[2])
        if failures:
            raise RankFailure(failures)
        return ([records[r][2] for r in range(nprocs)],
                [records[r][3] for r in range(nprocs)])
