"""Runtime SCMD race sanitizer — a vector-clock detector, off by default.

:func:`repro.mpi.launcher.mpirun` runs P rank "processors" as threads in
one address space, so an unsynchronized write to a shared object is a
real data race the static RA3xx pass (:mod:`repro.analysis.races`) can
only approximate.  This module is the dynamic half: armed via
``REPRO_TSAN=1`` (or :func:`configure`), it attaches a vector clock to
every rank-thread, propagates the clocks through the message and
collective paths of :mod:`repro.mpi.comm`, and keeps shadow metadata on
instrumented shared objects.  Two writes to the same object with no
happens-before edge between them raise :class:`~repro.errors.DataRaceError`
with a precise report: both ranks, both stacks, the object's identity,
and each rank's last ordering collective.

Cost model (mirrors :mod:`repro.resilience.faults` and
:mod:`repro.obs.trace`): every hook on a hot path is guarded by the
module attribute ``on`` — the *disabled* cost is exactly one flag check,
asserted by ``benchmarks/bench_sanitizer_overhead.py``.

Happens-before edges
--------------------
* ``send -> recv``: the sender's clock snapshot rides the message
  (:class:`repro.mpi.comm._Message.vc`); the receiver joins it.
* collectives: every participant leaves a rendezvous
  (:class:`repro.mpi.comm._CollSlot`) with the elementwise max of all
  entry clocks — a full synchronization.
* program order within one rank-thread.

What gets shadowed
------------------
* Mutable **class attributes** of instantiated components:
  :meth:`repro.cca.framework.Framework.instantiate` calls
  :func:`instrument_class`, which swaps plain ``dict``/``list``/``set``
  class attributes for :class:`ShadowDict`/:class:`ShadowList`/
  :class:`ShadowSet` wrappers whose mutators record a write.
* **Patch arrays**: :meth:`repro.samr.dataobject.DataObject.array`
  records an access keyed by the backing ndarray — per-rank storage
  never conflicts, a DataObject leaked across ranks does.
* **Port calls through a shared component**: while armed, the port
  interception seam (:mod:`repro.cca.portproxy`) records each call
  against the provider port's identity — two rank-threads calling
  through the *same* port object means the component instance itself is
  shared across ranks; per-rank frameworks produce distinct ports, so
  only genuinely shared instances collide.
"""

from __future__ import annotations

import os
import threading
import traceback
from typing import Any

from repro.errors import DataRaceError
from repro.util import arming as _arming
from repro.util import logging as rlog
from repro.util.options import env_flag

#: Master switch.  Hot paths read this module attribute directly
#: (``if sanitizer.on:``) — the disabled cost is this one check.
on: bool = False

_state: "_RunState | None" = None
_lock = threading.Lock()


def _capture_stack(skip: int = 2, limit: int = 12) -> str:
    """The caller's stack, sanitizer/bookkeeping frames trimmed."""
    frames = traceback.extract_stack()[:-skip]
    own = os.path.basename(__file__)
    frames = [f for f in frames if os.path.basename(f.filename) != own]
    return "".join(traceback.format_list(frames[-limit:]))


class _RunState:
    """Vector clocks + shadow table for one armed SCMD world."""

    def __init__(self, nprocs: int) -> None:
        self.nprocs = nprocs
        #: clocks[r] is rank r's vector clock (length nprocs); component
        #: r is only ever incremented by rank r's own thread.  Own
        #: components start at 1 so a first-epoch write compares as
        #: unordered against every other rank's zero view of it.
        self.clocks = [[1 if i == r else 0 for i in range(nprocs)]
                       for r in range(nprocs)]
        #: human-readable label of each rank's last ordering operation.
        self.last_sync = ["<program start>"] * nprocs
        #: key -> {rank: (epoch, stack, last_sync at write time)}
        self.writes: dict[str, dict[int, tuple[int, str, str]]] = {}
        self.lock = threading.Lock()

    # -- clock algebra -----------------------------------------------------
    def tick(self, rank: int) -> None:
        self.clocks[rank][rank] += 1

    def snapshot(self, rank: int) -> list[int]:
        return list(self.clocks[rank])

    def join(self, rank: int, other: list[int]) -> None:
        vc = self.clocks[rank]
        for i, v in enumerate(other):
            if v > vc[i]:
                vc[i] = v

    def happens_before(self, writer: int, epoch: int, reader: int) -> bool:
        """Did (writer, epoch) complete before ``reader``'s current point?"""
        return self.clocks[reader][writer] >= epoch

    # -- the race check ----------------------------------------------------
    def record_write(self, key: str, rank: int) -> None:
        with self.lock:
            history = self.writes.setdefault(key, {})
            for other, (epoch, stack, sync) in history.items():
                if other == rank:
                    continue
                if self.happens_before(other, epoch, rank):
                    continue
                here = _capture_stack()
                raise DataRaceError(
                    f"data race on {key}:\n"
                    f"  rank {rank} writes with no happens-before edge "
                    f"to rank {other}'s write\n"
                    f"--- rank {rank} (current write, last sync: "
                    f"{self.last_sync[rank]}) ---\n{here}"
                    f"--- rank {other} (previous write, last sync at "
                    f"write: {sync}) ---\n{stack}")
            history[rank] = (self.clocks[rank][rank], _capture_stack(),
                             self.last_sync[rank])


# -------------------------------------------------------------- arm/disarm
def configure() -> None:
    """Arm the sanitizer (sets the module flag).  Shadow state is built
    per SCMD world by :func:`world_begin`."""
    global on
    with _lock:
        on = True
    _arming.bump()


def deactivate() -> None:
    global on, _state
    with _lock:
        on = False
        _state = None
    _arming.bump()


def active() -> bool:
    """Armed *and* inside an SCMD world (clocks exist)."""
    return on and _state is not None


def world_begin(nprocs: int) -> None:
    """Called by :func:`repro.mpi.launcher.mpirun` before rank-threads
    start; allocates this world's clocks and shadow table."""
    global _state
    with _lock:
        _state = _RunState(nprocs)


def world_end() -> None:
    global _state
    with _lock:
        _state = None


def _rank() -> int | None:
    """The calling thread's rank, when tagged and inside a world."""
    st = _state
    if st is None:
        return None
    rank = rlog.get_rank()
    if rank is None or not 0 <= rank < st.nprocs:
        return None
    return rank


# ----------------------------------------------------------- comm.py hooks
def on_send(global_rank: int) -> list[int] | None:
    """Pre-send (a *release*): snapshot the sender's clock for the
    message, then tick — accesses after the send sit in a fresh epoch no
    receiver has observed."""
    st = _state
    if st is None:
        return None
    vc = st.snapshot(global_rank)
    st.tick(global_rank)
    return vc


def on_recv(global_rank: int, vc: list[int] | None, source: int) -> None:
    """Post-recv (an *acquire*): join the sender's snapshot."""
    st = _state
    if st is None or vc is None:
        return
    st.join(global_rank, vc)
    st.last_sync[global_rank] = f"recv from rank {source}"


def coll_arrive(slot: Any, global_rank: int) -> None:
    """Collective entry: publish this rank's clock on the rendezvous slot.

    Must run under ``slot.cond`` in the same critical section that
    inserts the rank's contribution, so every clock is present before
    ``slot.done`` flips and departures begin.
    """
    st = _state
    if st is None:
        return
    vcs = slot.__dict__.setdefault("_tsan_vcs", {})
    vcs[global_rank] = st.snapshot(global_rank)
    # release: accesses after the collective sit in a fresh epoch
    st.tick(global_rank)


def coll_depart(slot: Any, global_rank: int, label: str) -> None:
    """Collective exit: join every participant's clock (full sync)."""
    st = _state
    if st is None:
        return
    for vc in slot.__dict__.get("_tsan_vcs", {}).values():
        st.join(global_rank, vc)
    st.last_sync[global_rank] = f"collective {label}"


# ---------------------------------------------------------- access records
def record_write(key: str, rank: int | None = None) -> None:
    """Record a shared-object write by the calling rank-thread; raises
    :class:`~repro.errors.DataRaceError` on an unordered conflict."""
    st = _state
    if st is None:
        return
    if rank is None:
        rank = _rank()
        if rank is None:
            return
    st.record_write(key, rank)


def last_sync_of(rank: int) -> str:
    st = _state
    return st.last_sync[rank] if st is not None else "<no world>"


# -------------------------------------------------------- shadow containers
def _shadow(base: type, mutators: tuple[str, ...]) -> type:
    """A ``base`` subclass (``Shadow<Base>``) whose ``mutators`` record a
    sanitized write, keyed by the ``key=`` it was built with, before
    doing what ``base`` does."""
    default_key = f"<{base.__name__}>"

    def __init__(self, *args: Any, key: str = default_key, **kw: Any) -> None:
        base.__init__(self, *args, **kw)
        self._tsan_key = key

    def recording(name: str):
        forward = getattr(base, name)

        def mutator(self, *args: Any, **kw: Any) -> Any:
            if on:
                record_write(self._tsan_key)
            return forward(self, *args, **kw)

        mutator.__name__ = name
        return mutator

    namespace = {"__module__": __name__, "__init__": __init__,
                 "__doc__": f"{base.__name__} whose mutators record a "
                            f"sanitized write.",
                 # class-level fallback: unpickling fills a container
                 # before its instance state exists
                 "_tsan_key": default_key}
    namespace.update((name, recording(name)) for name in mutators)
    return type(f"Shadow{base.__name__.capitalize()}", (base,), namespace)


ShadowDict = _shadow(dict, ("__setitem__", "__delitem__", "update",
                            "setdefault", "pop", "popitem", "clear"))
ShadowList = _shadow(list, ("__setitem__", "__delitem__", "__iadd__",
                            "append", "extend", "insert", "pop", "remove",
                            "clear", "sort", "reverse"))
ShadowSet = _shadow(set, ("add", "update", "discard", "remove", "pop",
                          "clear"))

_SHADOW_TYPES = {dict: ShadowDict, list: ShadowList, set: ShadowSet}


def instrument_class(cls: type) -> None:
    """Swap ``cls``'s plain mutable class attributes (exact type dict/
    list/set) for shadow containers keyed ``Class.attr`` — the runtime
    counterpart of the RA202 model.  Idempotent; called by
    :meth:`repro.cca.framework.Framework.instantiate` while armed."""
    for name, value in list(vars(cls).items()):
        shadow = _SHADOW_TYPES.get(type(value))
        if shadow is None:
            continue
        key = f"{cls.__module__}.{cls.__qualname__}.{name}"
        setattr(cls, name, shadow(value, key=key))


def _activate_from_env() -> None:
    """``REPRO_TSAN=1`` arms the sanitizer for the whole process."""
    if env_flag("REPRO_TSAN", False):
        configure()


_activate_from_env()
