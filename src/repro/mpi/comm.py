"""The one MPI-1 communicator, with virtual-time accounting.

Execution model (mirrors CCAFFEINE's SCMD mode): ``P`` ranks run the
same program; each owns a :class:`Comm`.  ``Comm`` holds every MPI
*semantic* — destination checks, wildcard matching, ``Status`` /
``Request``, the virtual clock, fault and sanitizer hooks, spans and
counters, ``split`` / ``dup`` — and reaches the other ranks only through
its backend's *transport* (see :class:`Comm`): :class:`World` for
rank-threads in this process, ``repro.exec.mp._Station`` for forked
worker processes.  Messages are isolated by value on every transport
(arrays copied or moved through shared memory, other objects pickled),
so ranks cannot share mutable state through a send — the same
discipline real MPI buffers enforce.

Virtual time
------------
Each *rank* (not each communicator) owns a clock, advanced by:

* compute — counted work the integrators :meth:`~Comm.charge` at
  the machine model's prices (or, for a model without prices, the
  rank's own ``time.thread_time`` accrued since the previous MPI
  call: the measured mode);
* communication — alpha-beta costs from :class:`~repro.mpi.perfmodel.MachineModel`.

A blocking receive completes at ``max(receiver clock, sender clock at send
+ flight time)``; collectives synchronize every participant at
``max(entry clocks) + tree cost``.  With a priced model nothing the host
does reaches the clock, so a program whose receives name their sources
reads the same virtual times on every run and every host — the emulation
of a distributed-memory machine the paper's scaling studies (§5.2) need.

Threading rules: a ``Comm`` must only be used from the thread that owns its
rank.  All blocking waits poll with a short timeout so a crashed peer
aborts the whole world instead of deadlocking it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import CommAbortedError, MPIError
from repro.mpi.collectives import CollectiveMixin, Op, _isolate  # noqa: F401
from repro.mpi.perfmodel import MachineModel, LOCALHOST
from repro.obs import trace as _obs
from repro.obs.metrics import get_registry as _obs_registry
from repro.mpi import sanitizer as _tsan
from repro.resilience import faults as _faults

ANY_SOURCE = -1
ANY_TAG = -1

_POLL_INTERVAL = 0.05
#: the world communicator's id; ``split`` derives child ids from it.
WORLD_ID = "w"


@dataclass
class Status:
    """Receive-side envelope information."""

    source: int = ANY_SOURCE
    tag: int = ANY_TAG
    nbytes: int = 0


@dataclass
class _Message:
    source: int
    tag: int
    #: what ``transport.pack`` made of the object until it is posted; the
    #: object itself once ``transport.match`` hands the message over
    payload: Any
    nbytes: int
    avail_time: float
    #: sender's vector-clock snapshot while the sanitizer is armed
    vc: list[int] | None = None


def _match(box: list[_Message], source: int, tag: int,
           remove: bool) -> _Message | None:
    """First message in ``box`` from ``source`` with ``tag`` (wildcards
    ``ANY_SOURCE`` / ``ANY_TAG``), popped when ``remove``."""
    for i, msg in enumerate(box):
        if (source in (ANY_SOURCE, msg.source)
                and tag in (ANY_TAG, msg.tag)):
            return box.pop(i) if remove else msg
    return None


def _run_finish(entries: dict[int, tuple[Any, float]],
                finish: Callable[[dict[int, Any]], tuple[Any, float]]
                ) -> tuple[Callable[[int], Any], float]:
    """A collective's outcome from every member's ``(contribution, entry
    clock)``: ``(share, exit_clock)`` — what the one transport-side
    caller per rendezvous hands out, so every backend combines alike."""
    share, cost = finish({r: c for r, (c, _) in entries.items()})
    return share, max(clock for _, clock in entries.values()) + cost


class _RankState:
    """Per-rank virtual clock shared by all communicators of that rank."""

    def __init__(self, machine: MachineModel) -> None:
        self.machine = machine
        self.clock = 0.0
        self.mark = time.thread_time()

    def sync(self) -> None:
        """Measured mode only: accrue the thread's CPU time since the
        last call.  A priced model's compute arrives through ``charge``."""
        if self.machine.prices is not None:
            return
        now = time.thread_time()
        delta = now - self.mark
        self.mark = now
        if delta > 0.0:
            self.clock += self.machine.compute_time(delta)


class _CollSlot:
    """Rendezvous slot for one collective invocation."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.cond = threading.Condition()
        self.entries: dict[int, tuple[Any, float]] = {}
        #: rank -> that member's part of the outcome (set by ``finish``)
        self.share: Callable[[int], Any] | None = None
        self.exit_clock = 0.0
        self.done = False
        self.read = 0


class World:
    """Shared state behind all ranks of one SCMD run on the ``threads``
    backend, and that backend's transport (see :class:`Comm`): mailboxes
    and rendezvous slots under condition variables."""

    def __init__(self, size: int, machine: MachineModel = LOCALHOST) -> None:
        if size < 1:
            raise MPIError(f"world size must be >= 1, got {size}")
        self.size = size
        self.machine = machine
        self.aborted = False
        self.abort_reason: str | None = None
        self._lock = threading.Lock()
        # mailboxes keyed by (comm_id, dest global rank)
        self._boxes: dict[tuple[str, int], list[_Message]] = {}
        self._box_conds: dict[tuple[str, int], threading.Condition] = {}
        self._slots: dict[tuple[str, int], _CollSlot] = {}

    # -- plumbing ------------------------------------------------------------
    def box(self, comm_id: str, dest: int) -> tuple[list, threading.Condition]:
        key = (comm_id, dest)
        with self._lock:
            if key not in self._boxes:
                self._boxes[key] = []
                self._box_conds[key] = threading.Condition()
            return self._boxes[key], self._box_conds[key]

    def slot(self, comm_id: str, seq: int, size: int) -> _CollSlot:
        key = (comm_id, seq)
        with self._lock:
            if key not in self._slots:
                self._slots[key] = _CollSlot(size)
            return self._slots[key]

    def drop_slot(self, comm_id: str, seq: int) -> None:
        with self._lock:
            self._slots.pop((comm_id, seq), None)

    # -- the transport calls ---------------------------------------------------
    def check_alive(self) -> None:
        if self.aborted:
            raise CommAbortedError(self.abort_reason or "world aborted")

    def abort(self, reason: str) -> None:
        """Kill the world: every blocked rank raises CommAbortedError."""
        self.aborted = True
        self.abort_reason = reason
        with self._lock:
            conds = list(self._box_conds.values())
            slots = list(self._slots.values())
        for cond in conds:
            with cond:
                cond.notify_all()
        for slot in slots:
            with slot.cond:
                slot.cond.notify_all()

    pack = staticmethod(_isolate)

    def discard(self, wire: Any) -> None:
        """A dropped send's copy is plain garbage here."""

    def post(self, comm_id: str, dest: int, msg: _Message) -> None:
        box, cond = self.box(comm_id, dest)
        with cond:
            box.append(msg)
            cond.notify_all()

    def match(self, comm_id: str, me: int, source: int, tag: int,
              remove: bool, block: bool) -> _Message | None:
        box, cond = self.box(comm_id, me)
        with cond:
            while True:
                self.check_alive()
                msg = _match(box, source, tag, remove)
                if msg is not None or not block:
                    return msg
                cond.wait(timeout=_POLL_INTERVAL)

    def rendezvous(self, comm_id: str, seq: int, rank: int,
                   members: list[int], contribution: Any, clock: float,
                   finish: Callable[[dict[int, Any]], tuple[Any, float]],
                   label: str) -> tuple[Any, float]:
        """The last member to arrive runs ``finish``."""
        slot = self.slot(comm_id, seq, len(members))
        with slot.cond:
            if rank in slot.entries:
                raise MPIError("collective re-entered by the same rank")
            slot.entries[rank] = (contribution, clock)
            # Same critical section as the contribution insert: every
            # rank's clock is on the slot before done flips.
            if _tsan.on:
                _tsan.coll_arrive(slot, members[rank])
            if len(slot.entries) == slot.size:
                slot.share, slot.exit_clock = _run_finish(slot.entries,
                                                          finish)
                slot.done = True
                slot.cond.notify_all()
            else:
                while not slot.done:
                    self.check_alive()
                    slot.cond.wait(timeout=_POLL_INTERVAL)
            slot.read += 1
            if slot.read == slot.size:
                self.drop_slot(comm_id, seq)
        if _tsan.on:
            _tsan.coll_depart(slot, members[rank], label)
        return slot.share(rank), slot.exit_clock


class Request:
    """Handle for a non-blocking operation."""

    def __init__(self, wait_fn: Callable[[], Any], test_fn: Callable[[], bool]):
        self._wait_fn = wait_fn
        self._test_fn = test_fn
        self._done = False
        self._value: Any = None

    def wait(self) -> Any:
        if not self._done:
            self._value = self._wait_fn()
            self._done = True
        return self._value

    def test(self) -> bool:
        if self._done:
            return True
        if self._test_fn():
            self.wait()
            return True
        return False


class Comm(CollectiveMixin):
    """One rank's view of a communicator, on every execution backend.

    The world communicator (``id == WORLD_ID``) is handed to the SCMD
    program by :func:`repro.mpi.launcher.mpirun`; :meth:`split` and
    :meth:`dup` derive scoped communicators (the paper's component
    *cohorts*).  ``members`` maps comm rank -> global rank.  The
    collective front-ends come from
    :class:`~repro.mpi.collectives.CollectiveMixin`.

    Everything that leaves this rank goes through ``transport``, which
    moves bytes and blocks, and knows no MPI:

    * ``machine`` — the :class:`~repro.mpi.perfmodel.MachineModel`;
    * ``check_alive()`` — raise ``CommAbortedError`` once the world is
      aborted; ``abort(reason)`` — abort it;
    * ``pack(obj) -> (wire, nbytes)`` — isolate ``obj`` from its sender;
      ``discard(wire)`` — free a packed object nobody will receive;
    * ``post(comm_id, dest_global, msg)`` — deliver ``msg`` (payload:
      the wire) to that rank's mailbox, in posting order per sender;
    * ``match(comm_id, me_global, source, tag, remove, block)`` — the
      first matching message of the calling rank's mailbox, payload
      unpacked (``None`` when not blocking and nothing matches);
    * ``rendezvous(comm_id, seq, rank, members, contribution, clock,
      finish, label) -> (share, exit_clock)`` — collect every member's
      contribution and entry clock, run ``finish`` exactly once, give
      each member its share and ``max(entry clocks) + cost``.
    """

    def __init__(self, transport: Any, comm_id: str, rank: int,
                 members: list[int], state: _RankState | None = None) -> None:
        self._transport = transport
        self.id = comm_id
        self.rank = rank
        self.members = members
        self.size = len(members)
        self.global_rank = members[rank]
        self._coll_seq = 0
        self._split_seq = 0
        self._state = state or _RankState(transport.machine)

    @property
    def machine(self) -> MachineModel:
        """The machine model charging this comm's communication costs."""
        return self._transport.machine

    # -- virtual time ----------------------------------------------------------
    def _sync(self) -> None:
        self._state.sync()

    @property
    def clock(self) -> float:
        """The rank's current virtual time, compute charged up to now."""
        self._sync()
        return self._state.clock

    def advance(self, seconds: float) -> None:
        """Manually charge virtual seconds (perf-model-only workloads)."""
        if seconds < 0:
            raise MPIError("cannot advance the clock backwards")
        self._sync()
        self._state.clock += seconds

    def charge(self, kind: str, units: float) -> None:
        """Charge ``units`` of counted work (see ``WorkPrices``); free
        under a model that measures compute instead."""
        self.advance(self._state.machine.work_time(kind, units))

    def reset_clock(self) -> None:
        """Zero this rank's virtual clock (bench warm-up boundary)."""
        self._sync()
        self._state.clock = 0.0

    # -- point-to-point ----------------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking buffered send."""
        self._post_send(obj, dest, tag)

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Non-blocking send (buffered, completes immediately)."""
        self._post_send(obj, dest, tag)
        return Request(lambda: None, lambda: True)

    def _post_send(self, obj: Any, dest: int, tag: int) -> None:
        transport = self._transport
        transport.check_alive()
        if not (0 <= dest < self.size):
            raise MPIError(f"send dest {dest} out of range for size {self.size}")
        t0 = time.perf_counter() if _obs.on else 0.0
        self._sync()
        wire, nbytes = transport.pack(obj)
        machine = transport.machine
        avail = self._state.clock + machine.p2p_time(nbytes)
        # Fault injection (off by default; the disabled cost is this flag
        # check): a send may be silently dropped or its flight delayed.
        if _faults.on:
            fate = _faults.on_send(self.global_rank, dest, tag)
            if fate is _faults.DROP:
                self._state.clock += machine.send_overhead(nbytes)
                transport.discard(wire)
                return
            avail += fate
        # While the sanitizer is armed, the sender's vector-clock snapshot
        # rides the message — the disabled cost is this flag check.
        vc = _tsan.on_send(self.global_rank) if _tsan.on else None
        self._state.clock += machine.send_overhead(nbytes)
        transport.post(self.id, self.members[dest],
                       _Message(self.rank, tag, wire, nbytes, avail, vc))
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
        msg = self._transport.match(self.id, self.global_rank, source, tag,
                                    remove=True, block=True)
        self._state.clock = max(self._state.clock, msg.avail_time)
        if _tsan.on:
            _tsan.on_recv(self.global_rank, msg.vc, msg.source)
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
        """Block until a matching message is available; don't consume it."""
        msg = self._transport.match(self.id, self.global_rank, source, tag,
                                    remove=False, block=True)
        return Status(msg.source, msg.tag, msg.nbytes)

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """True if a matching message is waiting."""
        return self._transport.match(self.id, self.global_rank, source, tag,
                                     remove=False, block=False) is not None

    # -- collectives ----------------------------------------------------------
    def _collective(self, contribution: Any,
                    finish: Callable[[dict[int, Any]], tuple[Any, float]],
                    label: str = "collective") -> Any:
        """Generic rendezvous: every member contributes, one of them runs
        ``finish(contribs) -> (share, comm_cost)``, everyone leaves at
        ``max(entry clocks) + comm_cost`` with ``share(rank)``."""
        t0 = time.perf_counter() if _obs.on else 0.0
        self._sync()
        self._coll_seq += 1
        share, exit_clock = self._transport.rendezvous(
            self.id, self._coll_seq, self.rank, self.members, contribution,
            self._state.clock, finish, label)
        self._state.clock = max(self._state.clock, exit_clock)
        if _obs.on:
            _obs.complete(f"mpi.{label}", "mpi", t0, size=self.size,
                          vt=self._state.clock)
            _obs_registry().counter("mpi.collectives", op=label,
                                    rank=self.global_rank).inc()
        return share

    # barrier/bcast/reduce/allreduce/gather/allgather/scatter/alltoall are
    # inherited from CollectiveMixin, driven by _collective above.

    # -- communicator management ---------------------------------------------
    def split(self, color: int, key: int | None = None) -> "Comm":
        """Partition members by ``color``; order within a group by ``key``.

        Comm ids are agreed *deterministically*: every member derives
        ``parent_id/split_seq:color`` locally — all members call split
        collectively, so their per-comm split counters agree and no id
        allocator has to be shared between ranks."""
        key = self.rank if key is None else key
        triples = self.allgather((color, key, self.rank, self.global_rank))
        self._split_seq += 1
        mine = sorted((k, r, g) for (c, k, r, g) in triples if c == color)
        new_rank = [r for (_, r, _) in mine].index(self.rank)
        return Comm(self._transport, f"{self.id}/{self._split_seq}:{color}",
                    new_rank, [g for (_, _, g) in mine], self._state)

    def dup(self) -> "Comm":
        """Duplicate this communicator (fresh message/collective space)."""
        return self.split(color=0, key=self.rank)

    def abort(self, reason: str = "user abort") -> None:
        """Abort the whole world."""
        self._transport.abort(f"rank {self.global_rank}: {reason}")
        raise CommAbortedError(reason)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Comm(id={self.id!r}, rank={self.rank}/{self.size}, "
                f"global={self.global_rank})")
