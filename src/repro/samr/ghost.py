"""Ghost-cell exchange: same-level copies, coarse-fine interpolation,
physical boundaries.

"This subsystem implements the actual movement/copying of data between
patches and the packing/unpacking of data before/after message passing."
(paper §4, Data Object subsystem)

The exchange is SCMD: patch metadata is replicated, so every rank derives
the same global transfer schedule and talks only to its neighbours in it —
per kind of transfer one buffered send to each rank it owes blocks and one
receive from each rank that owes it any, on :data:`TRANSFER_TAG`.  A rank
with no neighbour sends and waits for nothing; no transfer is a world
collective.  With ``comm=None`` (or a single rank) everything degenerates
to local copies.

This module only *moves data*.  What moves where is geometry, built once
per regrid by :mod:`repro.samr.schedule` and looked up through
:meth:`Hierarchy.transfer_schedule`; each call here replays it.
"""

from __future__ import annotations

import time
from itertools import groupby
from operator import attrgetter
from typing import Callable

import numpy as np

from repro.errors import MeshError
from repro.obs import trace as _obs
from repro.obs.metrics import get_registry as _obs_registry
from repro.samr.dataobject import DataObject
from repro.samr.patch import Patch
from repro.samr.prolong import prolong_bilinear
from repro.samr.restrict import restrict_average
from repro.samr.schedule import CoarseFineTask, Route

#: The tag every replayed transfer travels on, reserved on whatever
#: communicator the replay is handed (user tags are >= 0).  One is enough:
#: receives name their source, and messages of one ``(source, tag)`` are
#: FIFO, so transfers replayed back to back — another route, another
#: DataObject — cannot take each other's messages.
TRANSFER_TAG = -2

#: Physical-boundary fill callback: ``bc(patch, ghosted_array, axis, side)``
#: where ``side`` is 0 (low face) or 1 (high face).
BCFill = Callable[[Patch, np.ndarray, int, int], None]


def exchange_ghosts(
    dobj: DataObject,
    level: int,
    comm=None,
    bc: BCFill | None = None,
) -> None:
    """Fill ghost cells of every owned patch on ``level``.

    Order of operations (later fills never overwrite earlier interior
    copies):

    1. coarse-fine: ghost regions under no same-level patch are
       interpolated from level ``level-1`` (monotone bilinear);
    2. same-level: ghost regions overlapping sibling interiors are copied;
    3. physical: ghost cells outside the domain are filled by ``bc``
       (default: zero-gradient extrapolation).
    """
    t0 = time.perf_counter() if _obs.on else 0.0
    schedule = dobj.hierarchy.transfer_schedule(
        level, 0 if comm is None else comm.rank)
    shipped = 0
    if level > 0:  # level 0 has no such collective to take part in
        shipped += fill_from_coarse(
            dobj, schedule.tasks, schedule.coarse_fine, comm)
    shipped += _move(dobj, schedule.siblings, comm)
    fill = bc or zero_gradient_bc
    for patch, axis, side in schedule.boundaries:
        fill(patch, dobj.array(patch), axis, side)

    if _obs.on:
        args = {"level": level, "nbytes": shipped}
        if comm is not None:
            args["vt"] = comm.clock
        _obs.complete("samr.ghost_exchange", "samr", t0, **args)
        reg = _obs_registry()
        reg.counter("samr.ghost_exchanges", level=level).inc()
        reg.counter("samr.ghost_bytes", level=level).inc(shipped)


def zero_gradient_bc(patch: Patch, arr: np.ndarray, axis: int, side: int) -> None:
    """Default physical fill: replicate the first interior cell outward."""
    g = patch.nghost
    if g == 0:
        return
    ax = axis + 1  # leading axis is the variable index
    if side == 0:
        edge = np.take(arr, [g], axis=ax)
        sl = [slice(None)] * arr.ndim
        sl[ax] = slice(0, g)
        arr[tuple(sl)] = edge
    else:
        edge = np.take(arr, [arr.shape[ax] - g - 1], axis=ax)
        sl = [slice(None)] * arr.ndim
        sl[ax] = slice(arr.shape[ax] - g, arr.shape[ax])
        arr[tuple(sl)] = edge


# -------------------------------------------------------------------- replay
def _move(dobj: DataObject, route: Route, comm,
          transform: Callable[[np.ndarray], np.ndarray] | None = None,
          target: Callable | None = None,
          source: Callable | None = None) -> int:
    """Replay one route: every block is read from ``source(src)`` (default:
    the source patch's array), passed through ``transform`` and stored in
    ``target(dst)[dst_index]`` (default: the destination patch's array) —
    this rank's own transfers directly, the others as one ``(*header,
    block)`` list sent to each rank owed blocks, then one received from
    each rank owing some.  Sources are named and taken in rank order, so
    neither the result nor the virtual clock depends on arrival order.
    Returns the payload bytes this rank shipped."""
    target = target or dobj.array
    source = source or dobj.array

    def read(src: Patch, index: tuple) -> np.ndarray:
        block = source(src)[index]
        return block if transform is None else transform(block)

    for src, src_index, dst, dst_index in route.local:
        target(dst)[dst_index] = read(src, src_index)
    if comm is None or comm.size == 1:
        return 0
    shipped = 0
    for dest in sorted(route.sends):
        batch = [(*header, np.ascontiguousarray(read(src, index)))
                 for header, src, index in route.sends[dest]]
        comm.isend(batch, dest, tag=TRANSFER_TAG)
        shipped += sum(block.nbytes for *_header, block in batch)
    for owing in sorted(route.sources):
        for *header, block in comm.recv(owing, tag=TRANSFER_TAG):
            dst, dst_index = route.recv[tuple(header)]
            target(dst)[dst_index] = block
    return shipped


def fill_from_coarse(dobj: DataObject, tasks: list[CoarseFineTask],
                     route: Route, comm=None) -> int:
    """Carry out a :func:`repro.samr.schedule.coarse_fine_plan`: assemble
    each task's padded coarse buffer, interpolate it (monotone bilinear)
    and store the selected region in the fine patch.  The plan lists its
    tasks by buffer shape; each run of equal shapes is one
    ``(k, nvar, *shape)`` stack and one ``prolong_bilinear`` call.
    Returns the payload bytes this rank shipped."""
    stacks = [np.empty((len(list(run)), dobj.nvar, *shape))
              for shape, run in groupby(tasks, key=attrgetter("shape"))]
    bufs = [buf for stack in stacks for buf in stack]
    shipped = _move(dobj, route, comm, target=bufs.__getitem__)
    for task, buf in zip(tasks, bufs):
        if task.holes is not None:
            holes, sources = task.holes
            buf[holes] = buf[sources]
    ratio = dobj.hierarchy.ratio
    fine_blocks = (block for stack in stacks
                   for block in prolong_bilinear(stack, ratio))
    for task, block in zip(tasks, fine_blocks):
        dobj.array(task.fine)[task.dest] = block[task.select]
    return shipped


def restrict_level(dobj: DataObject, fine_level: int, comm=None) -> None:
    """Average fine interiors down onto the underlying coarse patches
    ("injection" step after advancing a fine level)."""
    hierarchy = dobj.hierarchy
    if fine_level < 1:
        raise MeshError(f"no level below level {fine_level} to restrict to")
    schedule = hierarchy.transfer_schedule(
        fine_level, 0 if comm is None else comm.rank)
    ratio = hierarchy.ratio
    _move(dobj, schedule.restriction, comm,
          transform=lambda block: restrict_average(block, ratio))
