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
* **Communicator** — :class:`MPComm` mirrors
  :class:`repro.mpi.comm.Comm` method-for-method (p2p, probes,
  requests, split/dup, virtual clocks, fault hooks); the collective
  front-ends come from the same
  :class:`~repro.mpi.collectives.CollectiveMixin`, driven here by a
  gather-to-local-root / broadcast-result rendezvous.  Because the
  ``finish`` reduction runs exactly once (on comm rank 0, in sorted
  rank order), collective results are bit-identical with the threads
  backend.
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
from repro.mpi.collectives import CollectiveMixin
from repro.mpi.comm import (ANY_SOURCE, ANY_TAG, Comm, Request, Status,
                            _ClockMixin, _Message, _RankState)
from repro.mpi.perfmodel import MachineModel, LOCALHOST
from repro.mpi import sanitizer as _tsan
from repro.obs import profiler as _profiler
from repro.obs import trace as _obs
from repro.obs.metrics import get_registry as _obs_registry
from repro.resilience import faults as _faults
from repro.util import logging as rlog
from repro.util.options import env_flag

_POLL_INTERVAL = 0.05
#: grace period between "worker process is dead" and "synthesize its
#: failure" — covers the window where its last record is still in flight.
_DEATH_GRACE = 1.0
#: the world communicator's id on this backend (ids are strings derived
#: deterministically, no central allocator — see MPComm.split).
WORLD_ID = "w"
#: numbers the worlds this process launches (``next`` on a count is
#: atomic): with the pid it makes a world's segment names its own.
_WORLD_SERIALS = itertools.count()


class _Station:
    """One worker's post office: its inbox, peers' inboxes, the abort
    flag, and the stash of not-yet-consumed envelopes.

    Envelope kinds on an inbox (all payloads via
    :func:`~repro.exec.shm.encode_message`):

    * ``("p2p", comm_id, (source, tag, nbytes, avail_time, serial),
      env)`` — env decodes to the payload;
    * ``("coll", comm_id, seq, env)`` — a member's contribution to the
      comm's local root; decodes to ``(rank, contribution, clock)``;
    * ``("collr", comm_id, seq, env)`` — the root's result broadcast;
      decodes to ``(result, exit_clock)``.

    Out-of-order arrival across communicators/sequences is absorbed by
    the stash; a matching wait never consumes someone else's envelope.
    """

    def __init__(self, rank: int, nprocs: int, inboxes: list, abort,
                 machine: MachineModel, segment_prefix: str) -> None:
        self.rank = rank
        self.nprocs = nprocs
        self.inboxes = inboxes
        self.abort = abort
        self.machine = machine
        self.segment_names = _shm.segment_names(segment_prefix)
        self._p2p: dict[str, list[_Message]] = {}
        self._coll: dict[tuple[str, int], dict[int, tuple[Any, float]]] = {}
        self._collr: dict[tuple[str, int], tuple[Any, float]] = {}
        self._send_serial = 0

    def check_alive(self) -> None:
        if self.abort.is_set():
            raise CommAbortedError("world aborted by a peer rank")

    def next_serial(self) -> int:
        self._send_serial += 1
        return self._send_serial

    def encode(self, obj: Any) -> tuple[Any, int]:
        """``(envelope, nbytes)`` of ``obj``, its segment (if it needs
        one) named as this rank's."""
        return _shm.encode_message(obj, self.segment_names)

    def post(self, dest_global: int, item: tuple) -> None:
        self.inboxes[dest_global].put(item)

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
            source, tag, nbytes, avail, serial = header
            payload = _shm.decode_message(env)
            self._p2p.setdefault(cid, []).append(
                _Message(source, tag, payload, nbytes, avail, serial))
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
    def wait_p2p(self, cid: str, source: int, tag: int) -> _Message:
        while True:
            msg = Comm._match(self._p2p.get(cid, []), source, tag,
                              remove=True)
            if msg is not None:
                return msg
            self.check_alive()
            self._pump(_POLL_INTERVAL)

    def peek_p2p(self, cid: str, source: int, tag: int,
                 block: bool) -> _Message | None:
        while True:
            msg = Comm._match(self._p2p.get(cid, []), source, tag,
                              remove=False)
            if msg is not None or not block:
                return msg
            self.check_alive()
            self._pump(_POLL_INTERVAL)

    def wait_contribs(self, cid: str, seq: int,
                      expected: int) -> dict[int, tuple[Any, float]]:
        """Block until ``expected`` non-root contributions arrived."""
        key = (cid, seq)
        while True:
            got = self._coll.get(key, {})
            if len(got) >= expected:
                self._coll.pop(key, None)
                return got
            self.check_alive()
            self._pump(_POLL_INTERVAL)

    def wait_result(self, cid: str, seq: int) -> tuple[Any, float]:
        key = (cid, seq)
        while True:
            if key in self._collr:
                return self._collr.pop(key)
            self.check_alive()
            self._pump(_POLL_INTERVAL)


class MPComm(_ClockMixin, CollectiveMixin):
    """One rank's communicator on the ``mp`` backend.

    API-compatible with :class:`repro.mpi.comm.Comm` (the SCMD layer
    never sees the difference); ``members`` maps comm rank -> global
    rank so scoped communicators route over the same per-rank inboxes.
    """

    def __init__(self, station: _Station, comm_id: str, rank: int,
                 size: int, global_rank: int, members: list[int]) -> None:
        self._station = station
        self.id = comm_id
        self.rank = rank
        self.size = size
        self.global_rank = global_rank
        self._members = members
        self._coll_seq = 0
        self._split_seq = 0
        self._state = _RankState(station.machine)

    @property
    def world(self) -> "MPComm":  # minimal World-ish surface
        return self

    @property
    def machine(self) -> MachineModel:
        return self._station.machine

    def check_alive(self) -> None:
        self._station.check_alive()

    # clock / advance / charge / reset_clock come from _ClockMixin

    # -- point-to-point ---------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking buffered send."""
        self._post_send(obj, dest, tag)

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Non-blocking send (buffered, completes immediately)."""
        self._post_send(obj, dest, tag)
        return Request(lambda: None, lambda: True)

    def _post_send(self, obj: Any, dest: int, tag: int) -> None:
        self._station.check_alive()
        if not (0 <= dest < self.size):
            raise MPIError(
                f"send dest {dest} out of range for size {self.size}")
        t0 = time.perf_counter() if _obs.on else 0.0
        self._sync()
        env, nbytes = self._station.encode(obj)
        machine = self._station.machine
        avail = self._state.clock + machine.p2p_time(nbytes)
        if _faults.on:
            fate = _faults.on_send(self.global_rank, dest, tag)
            if fate is _faults.DROP:
                self._state.clock += machine.send_overhead(nbytes)
                _shm.discard_message(env)  # nobody will ever attach it
                return
            avail += fate
        header = (self.rank, tag, nbytes, avail,
                  self._station.next_serial())
        self._state.clock += machine.send_overhead(nbytes)
        self._station.post(self._members[dest],
                           ("p2p", self.id, header, env))
        if _obs.on:
            _obs.complete("mpi.send", "mpi", t0, dest=dest, tag=tag,
                          nbytes=nbytes, vt=self._state.clock)
            reg = _obs_registry()
            reg.counter("mpi.sends", rank=self.global_rank).inc()
            reg.counter("mpi.bytes_sent", rank=self.global_rank).inc(nbytes)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             status: Status | None = None) -> Any:
        """Blocking receive; wildcards ``ANY_SOURCE`` / ``ANY_TAG``."""
        t0 = time.perf_counter() if _obs.on else 0.0
        self._sync()
        vt_in = self._state.clock
        msg = self._station.wait_p2p(self.id, source, tag)
        self._state.clock = max(self._state.clock, msg.avail_time)
        if _obs.on:
            _obs.complete("mpi.recv", "mpi", t0, source=msg.source,
                          tag=msg.tag, nbytes=msg.nbytes,
                          vt=self._state.clock,
                          vt_wait=self._state.clock - vt_in)
            reg = _obs_registry()
            reg.counter("mpi.recvs", rank=self.global_rank).inc()
            reg.histogram("mpi.recv_wait_seconds",
                          rank=self.global_rank).observe(
                time.perf_counter() - t0)
        if status is not None:
            status.source = msg.source
            status.tag = msg.tag
            status.nbytes = msg.nbytes
        return msg.payload

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Non-blocking receive; ``wait()`` returns the payload."""
        return Request(
            lambda: self.recv(source, tag),
            lambda: self.iprobe(source, tag),
        )

    def sendrecv(self, sendobj: Any, dest: int, sendtag: int = 0,
                 source: int = ANY_SOURCE, recvtag: int = ANY_TAG,
                 status: Status | None = None) -> Any:
        """Combined send+receive (deadlock-free pairwise exchange)."""
        self._post_send(sendobj, dest, sendtag)
        return self.recv(source, recvtag, status)

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Status:
        """Block until a matching message is available; don't consume."""
        msg = self._station.peek_p2p(self.id, source, tag, block=True)
        return Status(msg.source, msg.tag, msg.nbytes)

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """True if a matching message is waiting."""
        self._station.check_alive()
        self._station._pump(0.0)
        return self._station.peek_p2p(self.id, source, tag,
                                      block=False) is not None

    # -- collectives ------------------------------------------------------
    def _collective(self, contribution: Any,
                    finish: Callable[[dict[int, Any]], tuple[Any, float]],
                    label: str = "collective") -> Any:
        """Gather-to-local-root rendezvous: every member ships its
        contribution (and entry clock) to comm rank 0, which runs
        ``finish`` exactly once and posts each member its own
        ``(share(member), exit_clock)`` — an ``alltoall`` row, a
        ``scatter`` item, ``None`` to the non-roots of a ``gather`` — not
        the whole outcome.  Same contract as the threads rendezvous:
        everyone leaves at ``max(entry clocks) + comm_cost`` holding its
        share."""
        t0 = time.perf_counter() if _obs.on else 0.0
        self._sync()
        self._coll_seq += 1
        seq = self._coll_seq
        station = self._station
        if self.rank == 0:
            others = station.wait_contribs(self.id, seq, self.size - 1)
            contribs = {r: c for r, (c, _) in others.items()}
            contribs[0] = contribution
            entry_max = max([clk for _, clk in others.values()]
                            + [self._state.clock])
            share, cost = finish(contribs)
            exit_clock = entry_max + cost
            for member in range(1, self.size):
                wire, _ = station.encode((share(member), exit_clock))
                station.post(self._members[member],
                             ("collr", self.id, seq, wire))
            result = share(0)
        else:
            wire, _ = station.encode(
                (self.rank, contribution, self._state.clock))
            station.post(self._members[0], ("coll", self.id, seq, wire))
            result, exit_clock = station.wait_result(self.id, seq)
        self._state.clock = max(self._state.clock, exit_clock)
        if _obs.on:
            _obs.complete(f"mpi.{label}", "mpi", t0, size=self.size,
                          vt=self._state.clock)
            _obs_registry().counter("mpi.collectives", op=label,
                                    rank=self.global_rank).inc()
        return result

    # barrier/bcast/reduce/allreduce/gather/allgather/scatter/alltoall
    # are inherited from CollectiveMixin, driven by _collective above.

    # -- communicator management -----------------------------------------
    def split(self, color: int, key: int | None = None) -> "MPComm":
        """Partition members by ``color``; order within a group by
        ``key``.  Comm ids are agreed *deterministically*: every member
        derives ``parent_id/split_seq:color`` locally — all members call
        split collectively, so their per-comm split counters agree and
        no central id allocator is needed across processes."""
        key = self.rank if key is None else key
        triples = self.allgather((color, key, self.rank, self.global_rank))
        self._split_seq += 1
        mine = sorted(
            (k, r, g) for (c, k, r, g) in triples if c == color)
        new_rank = [r for (_, r, _) in mine].index(self.rank)
        members = [g for (_, _, g) in mine]
        new_id = f"{self.id}/{self._split_seq}:{color}"
        child = MPComm(self._station, new_id, new_rank, len(members),
                       self.global_rank, members)
        child._state = self._state  # one clock per rank, as on threads
        return child

    def dup(self) -> "MPComm":
        """Duplicate this communicator (fresh message/collective space)."""
        return self.split(color=0, key=self.rank)

    def abort(self, reason: str = "user abort") -> None:
        """Abort the whole world."""
        self._station.abort.set()
        raise CommAbortedError(reason)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MPComm(id={self.id!r}, rank={self.rank}/{self.size}, "
                f"global={self.global_rank})")


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
    station = _Station(rank, nprocs, inboxes, abort_evt, machine,
                       f"{segment_prefix}{rank}-")
    comm = MPComm(station, WORLD_ID, rank, nprocs, rank,
                  list(range(nprocs)))
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
            return_clocks: bool = False) -> list[Any]:
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
        secondary: dict[int, BaseException] = {}
        for rank in sorted(records):
            rec = records[rank]
            if rec[0] == "err":
                failures[rank] = RemoteRankError(rec[2], rec[3], rec[4])
            elif rec[0] == "aborted":
                secondary[rank] = CommAbortedError(rec[2])
        if failures or secondary:
            raise RankFailure(failures or secondary)

        results = [records[r][2] for r in range(nprocs)]
        clocks = [records[r][3] for r in range(nprocs)]
        if _obs.on and nprocs > 1:
            from repro.obs.aggregate import record_rank_clocks
            summary = record_rank_clocks(clocks)
            _obs.instant(
                "mpi.world_teardown", "launcher", nprocs=nprocs,
                imbalance=summary["stats"]["imbalance"],
                clock_max=summary["stats"]["max"],
                clock_mean=summary["stats"]["mean"])
        if return_clocks:
            return [(results[r], clocks[r]) for r in range(nprocs)]
        return results
