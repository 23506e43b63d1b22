"""Collective front-ends of the one communicator, :class:`repro.mpi.comm.Comm`.

The MPI-1 collective *semantics* — what a ``bcast``/``reduce``/
``scatter`` means, how contributions combine (:class:`Op`), what the
virtual-time cost of the rendezvous is — are transport-independent.
This mixin states them once, against a minimal contract its host class
provides:

* ``self.rank`` / ``self.size`` — this member's position in the comm;
* ``self.machine`` — the :class:`~repro.mpi.perfmodel.MachineModel`
  charging communication costs;
* ``self._collective(contribution, finish, label)`` — the rendezvous
  primitive: every member contributes, ``finish(contribs) -> (share,
  comm_cost)`` runs exactly once somewhere, every member leaves at
  ``max(entry clocks) + comm_cost`` holding ``share(rank)`` — its own
  part of the outcome, so a transport that ships results between
  processes sends member *r* only what member *r* returns.

``Comm._collective`` hands the rendezvous to its backend's transport:
:class:`repro.mpi.comm.World` runs it on condition variables (the
``threads`` backend), ``repro.exec.mp._Station`` as a gather-to-local-
root / post-back-shares exchange over OS pipes (the ``mp`` backend).
Because ``finish`` runs once and its reduction iterates ranks in sorted
order, both transports produce bit-identical collective results.
"""

from __future__ import annotations

import enum
import pickle
from typing import Any

import numpy as np

from repro.errors import MPIError


class Op(enum.Enum):
    """Reduction operations (the MPI_Op subset the toolkit uses)."""

    SUM = "sum"
    PROD = "prod"
    MIN = "min"
    MAX = "max"
    LOR = "lor"
    LAND = "land"

    def apply(self, a: Any, b: Any) -> Any:
        """Combine two contributions (NumPy arrays combine elementwise)."""
        if self is Op.SUM:
            return a + b
        if self is Op.PROD:
            return a * b
        if self is Op.MIN:
            return np.minimum(a, b) if _is_array(a) or _is_array(b) else min(a, b)
        if self is Op.MAX:
            return np.maximum(a, b) if _is_array(a) or _is_array(b) else max(a, b)
        if self is Op.LOR:
            return np.logical_or(a, b) if _is_array(a) or _is_array(b) else (a or b)
        if self is Op.LAND:
            return np.logical_and(a, b) if _is_array(a) or _is_array(b) else (a and b)
        raise MPIError(f"unsupported reduction {self}")  # pragma: no cover


def _is_array(x: Any) -> bool:
    return isinstance(x, np.ndarray)


def _isolate(obj: Any) -> tuple[Any, int]:
    """Copy ``obj`` by value and return ``(copy, nbytes)``.

    NumPy arrays take the fast path (buffer copy); everything else rides
    pickle, matching mpi4py's lowercase-method semantics.
    """
    if isinstance(obj, np.ndarray):
        copy = np.array(obj, copy=True)
        return copy, copy.nbytes
    blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return pickle.loads(blob), len(blob)


def _everyone(value: Any):
    """The share of a collective whose members all get ``value``."""
    return lambda rank: value


def _only(root: int, value: Any):
    """The share of a collective that leaves ``value`` at ``root`` and
    ``None`` everywhere else."""
    return lambda rank: value if rank == root else None


class CollectiveMixin:
    """Transport-independent MPI-1 collectives (see module docstring)."""

    # the host class provides: rank, size, machine, _collective(...)

    def barrier(self) -> None:
        """Synchronize all members."""
        machine, size = self.machine, self.size

        def finish(_contribs):
            return _everyone(None), machine.barrier_time(size)

        self._collective(None, finish, label="barrier")

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast ``obj`` from ``root``; all members return it."""
        machine, size = self.machine, self.size
        payload = _isolate(obj) if self.rank == root else None

        def finish(contribs):
            value, nbytes = contribs[root]
            return _everyone(value), machine.bcast_time(size, nbytes)

        return self._collective(payload, finish, label="bcast")

    def reduce(self, obj: Any, op=None, root: int = 0) -> Any:
        """Reduce to ``root``; non-roots return ``None``."""
        return self._reduce_common(obj, op, root)

    def allreduce(self, obj: Any, op=None) -> Any:
        """Reduce and distribute the result to every member."""
        return self._reduce_common(obj, op, None)

    def _reduce_common(self, obj: Any, op, root: int | None) -> Any:
        """``root`` None: everyone gets the result (allreduce)."""
        op = Op.SUM if op is None else op
        machine, size = self.machine, self.size
        payload = _isolate(obj)

        def finish(contribs):
            acc = None
            nbytes = 0
            for rank in sorted(contribs):
                value, nb = contribs[rank]
                nbytes = max(nbytes, nb)
                acc = value if acc is None else op.apply(acc, value)
            if root is None:
                return _everyone(acc), machine.allreduce_time(size, nbytes)
            return _only(root, acc), machine.reduce_time(size, nbytes)

        return self._collective(
            payload, finish, label="allreduce" if root is None else "reduce")

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        """Gather one object per member to ``root`` (rank-ordered list)."""
        machine, size = self.machine, self.size
        payload = _isolate(obj)

        def finish(contribs):
            nbytes = max(nb for _, nb in contribs.values())
            values = [contribs[r][0] for r in range(size)]
            return _only(root, values), machine.gather_time(size, nbytes)

        return self._collective(payload, finish, label="gather")

    def allgather(self, obj: Any) -> list[Any]:
        """Gather one object per member to everyone."""
        machine, size = self.machine, self.size
        payload = _isolate(obj)

        def finish(contribs):
            nbytes = max(nb for _, nb in contribs.values())
            values = [contribs[r][0] for r in range(size)]
            return _everyone(values), machine.allgather_time(size, nbytes)

        return self._collective(payload, finish, label="allgather")

    def scatter(self, objs: list[Any] | None, root: int = 0) -> Any:
        """Scatter ``objs[i]`` from root to rank ``i``."""
        machine, size = self.machine, self.size
        payload = None
        if self.rank == root:
            if objs is None or len(objs) != size:
                raise MPIError(
                    f"scatter root needs a list of exactly {size} items")
            payload = [_isolate(o) for o in objs]

        def finish(contribs):
            items = contribs[root]
            nbytes = max(nb for _, nb in items) if items else 0
            return (lambda rank: items[rank][0],
                    machine.gather_time(size, nbytes))

        return self._collective(payload, finish, label="scatter")

    def alltoall(self, objs: list[Any]) -> list[Any]:
        """Personalized all-to-all: rank i's ``objs[j]`` lands at rank j."""
        machine, size = self.machine, self.size
        if len(objs) != size:
            raise MPIError(f"alltoall needs exactly {size} items")
        payload = [_isolate(o) for o in objs]

        def finish(contribs):
            nbytes = max(nb for items in contribs.values() for _, nb in items)
            return (lambda dest: [contribs[src][dest][0]
                                  for src in range(size)],
                    machine.alltoall_time(size, nbytes))

        return self._collective(payload, finish, label="alltoall")
