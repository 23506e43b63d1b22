"""The ``mp`` backend: real worker processes, pipes and shared memory.

Where the ``threads`` backend emulates "P processors" with rank-threads
and virtual clocks, this backend actually forks P worker processes —
real cores, real wall-clock speedups, real private address spaces (the
property the paper's SCMD mode takes for granted and rank-threads
violate).  A world is ``os.fork``, ``os.pipe`` and ``mmap`` only: no
``multiprocessing``, no helper thread or process.  The pieces:

* **Transport** — one non-blocking pipe per ordered pair of ranks,
  made before the fork, carrying :func:`repro.exec.shm.encode_message`
  envelopes (bulk arrays in shared segments) as length-prefixed frames;
  no rank starts a thread, and what is sent to an exited rank is
  dropped.  Segments are named by launcher pid, world and rank: those of
  a killed or aborted world are unlinked when :meth:`MPBackend.run`
  returns, those of a killed launcher when the next world starts.
* **Communicator** — the same :class:`repro.mpi.comm.Comm` as on every
  backend; :class:`_Station` is the transport behind it (the calls are
  listed on ``Comm``), and its rendezvous is a gather-to-local-root /
  post-back-shares exchange.  Because the ``finish`` reduction runs
  exactly once (on comm rank 0, in sorted rank order), collective
  results are bit-identical with the threads backend.
* **Failure paths** — a crashed rank pickles its traceback *text* back
  to the parent over its report pipe
  (:class:`~repro.mpi.launcher.RemoteRankError`) and sets the world's
  abort byte (one byte of a shared anonymous mapping) so its peers raise
  :class:`~repro.errors.CommAbortedError` instead of deadlocking.  The
  launcher reads each report pipe to EOF, which comes when the rank
  exits: a silently-dead process (``os.kill``, segfault) leaves no whole
  record and is synthesized into the same
  :class:`~repro.mpi.launcher.RankFailure`.  Every rank is reaped, and
  one still running a grace after a peer failed is stopped.
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

Ranks are forked (SCMD ``main`` callables are closures, which cannot
cross a ``spawn`` boundary); platforms without ``os.fork`` report
unavailable.  The launcher flushes its std streams before forking and a
rank flushes its own before its hard exit, so output is neither
duplicated nor lost.
"""

from __future__ import annotations

import contextlib
import itertools
import mmap
import os
import pickle
import resource
import select
import signal
import struct
import sys
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
from repro.obs import trace as _obs
from repro.obs.metrics import get_registry as _obs_registry
from repro.resilience import faults as _faults
from repro.util import logging as rlog
from repro.util.options import env_flag

#: how long a finished or dead worker gets to exit before it is terminated
_DEATH_GRACE = 1.0
_FRAME = struct.Struct("<Q")  # a frame's length prefix
#: numbers the worlds this process launches (``next`` on a count is
#: atomic): with the pid it makes a world's segment names its own.
_WORLD_SERIALS = itertools.count()


class _AbortFlag:
    """A world's abort flag: one byte of an anonymous shared mapping made
    before the fork, so the launcher and every rank read the same byte."""

    def __init__(self) -> None:
        self._byte = mmap.mmap(-1, 1)

    def is_set(self) -> bool:
        return self._byte[0] != 0

    def set(self) -> None:
        self._byte[0] = 1


class _Station:
    """One worker's post office — its pipe ends, the abort flag and the
    stash of not-yet-consumed envelopes — and the ``mp`` backend's
    transport behind :class:`~repro.mpi.comm.Comm`.

    A send appends its frame to the peer's outbox and writes what the
    pipe takes (the rest waits for this rank's next call); every wait
    writes what is pending and reads every inbound pipe, so ranks
    bursting at each other all progress.  Item kinds (all payloads via
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

    def __init__(self, rank: int, inbound: list[int],
                 outbound: dict[int, int], abort_evt: _AbortFlag,
                 machine: MachineModel, segment_prefix: str) -> None:
        self.rank = rank
        self.machine = machine
        self.segment_names = _shm.segment_names(segment_prefix)
        self._abort_evt = abort_evt
        self._launcher = os.getppid()
        self._peer_fd = outbound
        self._outbox = {fd: bytearray() for fd in outbound.values()}
        self._inbox = {fd: bytearray() for fd in inbound}
        for fd in [*self._inbox, *self._outbox]:
            os.set_blocking(fd, False)
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
        self._send(dest, (
            "p2p", comm_id,
            (msg.source, msg.tag, msg.nbytes, msg.avail_time), msg.payload))

    def _send(self, dest: int, item: tuple) -> None:
        blob = pickle.dumps(item, protocol=pickle.HIGHEST_PROTOCOL)
        fd = self._peer_fd[dest]
        self._outbox[fd] += _FRAME.pack(len(blob))
        self._outbox[fd] += blob
        self._flush(fd)

    def _flush(self, fd: int) -> bool:
        """Write what pipe ``fd`` takes of its outbox; True once empty."""
        box = self._outbox[fd]
        try:
            while box:
                del box[:os.write(fd, box)]
        except BlockingIOError:
            return False
        except BrokenPipeError:  # the peer has exited: it never reads this
            box.clear()
        return True

    def _pump(self, timeout: float) -> None:
        """Write what is pending and file what has arrived, waiting up
        to ``timeout`` for a pipe; an orphaned rank aborts the world."""
        poll = select.poll()
        for fd in self._inbox:
            poll.register(fd, select.POLLIN)
        for fd, box in self._outbox.items():
            if box and not self._flush(fd):
                poll.register(fd, select.POLLOUT)
        ready = poll.poll(1e3 * timeout)
        for fd, _ in ready:
            if fd in self._inbox:
                self._receive(fd)
            else:
                self._flush(fd)
        if not ready and os.getppid() != self._launcher:
            self._abort_evt.set()

    def _receive(self, fd: int) -> None:
        try:
            chunk = os.read(fd, 1 << 16)  # what a pipe holds
        except BlockingIOError:
            return
        buf = self._inbox[fd]
        if not chunk:  # the peer has exited
            del self._inbox[fd]
        buf += chunk
        while len(buf) >= _FRAME.size:
            end = _FRAME.size + _FRAME.unpack_from(buf)[0]
            if end > len(buf):
                break
            self._file(pickle.loads(buf[_FRAME.size:end]))
            del buf[:end]

    def drain(self) -> None:
        """Flush before reporting, reading all the while (a peer may be
        flushing here); what is left for an exited peer is dropped."""
        while any(self._outbox.values()) and not self._abort_evt.is_set():
            self._pump(_POLL_INTERVAL)

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
            self._send(members[0], ("coll", comm_id, seq, wire))
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
            self._send(members[member], ("collr", comm_id, seq, wire))
        return share(0), exit_clock


# ---------------------------------------------------------------- worker
def _obs_ship_enabled() -> bool:
    """``REPRO_OBS_SHIP=0`` disables worker observability shipping (the
    overhead bench uses it to isolate the shipping cost)."""
    return env_flag("REPRO_OBS_SHIP", True)


def _armed_profiler():
    """:mod:`repro.obs.profiler` when its sampler runs in this process,
    else None.  Whoever starts a sampler imports the module, so one that
    was never imported has none running."""
    profiler = sys.modules.get("repro.obs.profiler")
    return profiler if profiler is not None and profiler.on else None


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
    profiler = _armed_profiler()
    if profiler is not None and _obs_ship_enabled():
        inherited = profiler.get()
        profiler.start(
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
    profiler = _armed_profiler()
    prof = profiler.stop() if profiler is not None else None
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
            from repro.obs import profiler
            prof = profiler.get()
            if prof is not None:
                prof.absorb(samples)


def _worker(rank: int, nprocs: int, machine: MachineModel,
            main: Callable[..., Any], args: Sequence[Any], links: dict,
            reports: list, abort_evt: _AbortFlag, segment_prefix: str,
            trace_ctx: dict | None = None) -> None:
    """One rank's body in its forked process: it keeps only its own pipe
    ends and ends by writing its pickled record to its report pipe."""
    # The sanitizer's shadow state is meaningless here: this process IS
    # the private address space.  Disarm locally (fork-isolated write).
    _tsan.deactivate()
    _child_obs_setup(trace_ctx)
    inbound = [r for (_, dst), (r, _) in links.items() if dst == rank]
    outbound = {dst: w for (src, dst), (_, w) in links.items() if src == rank}
    mine = {*inbound, *outbound.values(), reports[rank][1]}
    for fd in set(itertools.chain(*links.values(), *reports)) - mine:
        os.close(fd)
    station = _Station(rank, inbound, outbound, abort_evt, machine,
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
    station.drain()
    try:
        blob = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # unpicklable per-rank result
        blob = pickle.dumps(
            ("err", rank, type(exc).__name__,
             f"rank result is not picklable: {exc}",
             traceback.format_exc(), _counts(), obs_env),
            protocol=pickle.HIGHEST_PROTOCOL)
    report = memoryview(blob)
    with contextlib.suppress(OSError):  # the launcher may have gone
        while report:
            report = report[os.write(reports[rank][1], report):]


def _flush_std() -> None:
    for stream in (sys.stdout, sys.stderr):
        with contextlib.suppress(Exception):  # None, closed or broken
            stream.flush()


def _fork(rank: int, worker_args: tuple) -> int:
    """Fork rank ``rank``'s process and return its pid; the child runs
    :func:`_worker` and exits without returning."""
    pid = os.fork()
    if pid:
        return pid
    code = 1
    try:
        if sys.stdin is not None:  # a rank reads no input
            with contextlib.suppress(OSError, ValueError):
                sys.stdin.close()
                sys.stdin = open(os.devnull)
        _worker(rank, *worker_args)
        code = 0
    finally:
        # Hard exit: skip the parent's inherited atexit handlers (obs
        # flushers, bench ledger writers) — this is a rank, not the
        # session — but keep what the rank printed.
        _flush_std()
        os._exit(code)


def _counts() -> dict | None:
    return _faults.snapshot_counts() if _faults.on else None


def _exited(pid: int, timeout: float) -> bool:
    """Whether process ``pid`` exits, and is reaped, within ``timeout`` s."""
    deadline = time.monotonic() + timeout
    while not os.waitpid(pid, os.WNOHANG)[0]:
        if time.monotonic() >= deadline:
            return False
        time.sleep(_POLL_INTERVAL)
    return True


def _reap(pid: int) -> None:
    """Reap rank process ``pid``, which has not reported: it gets
    ``_DEATH_GRACE`` to exit, as long again after a SIGTERM, and then a
    SIGKILL, so no zombie is left and a rank that traps SIGTERM cannot
    hang the launcher."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        if _exited(pid, _DEATH_GRACE):
            return
        os.kill(pid, sig)
    os.waitpid(pid, 0)


def _read_into(fd: int, buf: bytearray) -> bool:
    """Append what non-blocking pipe ``fd`` holds to ``buf``; True at EOF."""
    try:
        while chunk := os.read(fd, 1 << 16):
            buf += chunk
    except BlockingIOError:
        return False
    return True


def _collect(running: dict[int, int], readers: list[int],
             abort_evt: _AbortFlag, records: dict[int, tuple]) -> None:
    """Read each rank's pickled record off its report pipe into
    ``records``, and reap the rank at the pipe's EOF — its exit (or, if
    its ``main`` forked and the fork outlives it, that fork's).  A rank
    whose pipe closes without a whole record is a ``WorkerDied`` with
    its exit code, and aborts its peers.  Once a rank has failed, the
    ranks still in ``running`` (rank → pid) have ``_DEATH_GRACE`` to
    report; those left when it is over are the caller's to stop."""
    rank_of = {fd: rank for rank, fd in enumerate(readers)}
    inbox = {fd: bytearray() for fd in readers}
    poll = select.poll()
    for fd in readers:
        poll.register(fd, select.POLLIN)
    deadline = None
    while rank_of:
        ready = poll.poll(None if deadline is None else
                          max(0.0, 1e3 * (deadline - time.monotonic())))
        if not ready:  # the grace is over
            return
        for fd, _ in ready:
            if not _read_into(fd, inbox[fd]):
                continue
            poll.unregister(fd)
            rank = rank_of.pop(fd)
            status = os.waitpid(running.pop(rank), 0)[1]
            try:
                records[rank] = pickle.loads(inbox.pop(fd))
            except Exception:  # empty or cut short: the rank died first
                abort_evt.set()
                reason = (f"rank {rank} worker process died with exit code "
                          f"{os.waitstatus_to_exitcode(status)} before "
                          f"reporting a result")
                records[rank] = (
                    "err", rank, "WorkerDied", reason,
                    f"WorkerDied: {reason} (killed or segfaulted; no "
                    f"Python traceback exists)", None, None)
            if deadline is None and records[rank][0] == "err":
                deadline = time.monotonic() + _DEATH_GRACE


def _open_pipes(nprocs: int) -> tuple[dict, list]:
    """A pipe per ordered pair of ranks and a report pipe per rank: the
    launcher holds 2·P·(P+1) descriptors while it forks (4 704 at
    P = 48), and a soft limit below that is raised."""
    need = 2 * nprocs * (nprocs + 1) + len(os.listdir("/dev/fd")) + 2
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft < need:
        if hard < need:
            raise MPIError(f"an mp world of {nprocs} ranks needs {need} file "
                           f"descriptors, over the hard limit of {hard}")
        resource.setrlimit(resource.RLIMIT_NOFILE, (need, hard))
    links = {pair: os.pipe()
             for pair in itertools.product(range(nprocs), repeat=2)}
    return links, [os.pipe() for _ in range(nprocs)]


class MPBackend(ExecBackend):
    """P forked worker processes (see module docstring)."""

    name = "mp"

    def available(self) -> tuple[bool, str]:
        if not hasattr(os, "fork"):
            return False, "requires os.fork, which this platform lacks"
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

        _shm.sweep_orphans()
        links, reports = _open_pipes(nprocs)
        abort_evt = _AbortFlag()
        fault_base = _counts()
        trace_ctx = _obs.current_context() if _obs.on else None
        segment_prefix = f"repro-{os.getpid()}-{next(_WORLD_SERIALS)}-"
        worker_args = (nprocs, machine, main, tuple(args), links, reports,
                       abort_evt, segment_prefix, trace_ctx)
        # the launcher keeps the reports' read ends only
        spare = [*itertools.chain(*links.values()), *(w for _, w in reports)]
        readers = [r for r, _ in reports]
        running: dict[int, int] = {}  # rank → pid, until reaped
        records: dict[int, tuple] = {}
        try:
            _flush_std()  # or each rank would print the buffer again
            for rank in range(nprocs):
                running[rank] = _fork(rank, worker_args)
            while spare:
                os.close(spare.pop())
            for reader in readers:
                os.set_blocking(reader, False)
            _collect(running, readers, abort_evt, records)
        finally:
            abort_evt.set()
            for fd in spare + readers:
                os.close(fd)
            for pid in running.values():
                _reap(pid)
            # Fold worker obs payloads before anything can raise (failed
            # runs keep their partial traces), then unlink what nobody
            # consumed: messages in flight to a killed or aborted rank
            # would otherwise outlive the world by the parent's lifetime.
            _fold_obs(records)
            _shm.sweep(segment_prefix)
        for rank in running:  # still running when the abort's grace ran out
            records[rank] = ("aborted", rank, "world aborted by a peer rank; "
                             "this rank was stopped", None, None)

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
