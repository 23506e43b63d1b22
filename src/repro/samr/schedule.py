"""Transfer schedules: the geometry of ghost fill and restriction.

Which cells move between which patches is a pure function of the boxes,
owners and ghost width of a level's patches and of the patches one level
below.  That geometry changes only when the hierarchy is regridded, so it
is worked out once — box intersections, halo-minus-siblings subtraction,
bounds checks, the nearest-neighbour fill of pad cells no coarse patch
covers — and kept as ready-made NumPy index tuples.
:func:`repro.samr.ghost.exchange_ghosts` and
:func:`repro.samr.ghost.restrict_level` replay it: nothing here knows a
``DataObject`` or a variable count.

Patch metadata is replicated, so every rank derives the same global
schedule and keeps its own view of it: the moves it makes alone, the
blocks it owes each neighbour, which neighbours owe it any and where each
block it receives belongs.
:meth:`repro.samr.hierarchy.Hierarchy.transfer_schedule` caches one
schedule per ``(level, rank)`` and compares the patches it was built from
*by value*, so whatever changes a level — ``regrid``,
``set_level_boxes``, ``drop_levels_above``, ``Level.add``, a checkpoint
restore, an edit of ``level.patches`` — is seen without anyone having to
say so.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from repro.errors import MeshError
from repro.samr.box import Box
from repro.samr.boxlist import subtract_all
from repro.samr.patch import Patch

#: ``(slice(None), *cell_slices)``: every variable of a cell region.
Index = tuple


def _index(cell_slices: Sequence) -> Index:
    return (slice(None), *cell_slices)


class Route:
    """One kind of transfer as one rank sees it.

    ``local`` holds ``(src, src_index, dst, dst_index)`` moves between two
    patches of this rank; ``sends[rank]`` the ``(header, src, src_index)``
    blocks owed to another rank, in schedule order; ``recv[header]`` the
    ``(dst, dst_index)`` of each block another rank owes this one and
    ``sources`` the ranks that owe it any.  A header is the ``(id, lo,
    hi)`` that travels with the block.  Every rank builds its view from
    the same replicated patch list, so ``b in a.sends`` on rank *a* exactly
    when ``a in b.sources`` on rank *b*: a route is replayed as one message
    per neighbour and nobody waits for a rank that owes it nothing.
    """

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.local: list[tuple] = []
        self.sends: dict[int, list[tuple]] = {}
        self.recv: dict[tuple, tuple] = {}
        self.sources: set[int] = set()

    def add(self, src: Patch, src_index: Index, dst_owner: int, dst,
            dst_index: Index, header: tuple) -> None:
        if src.owner == self.rank:
            if dst_owner == self.rank:
                self.local.append((src, src_index, dst, dst_index))
            else:
                self.sends.setdefault(dst_owner, []).append(
                    (header, src, src_index))
        elif dst_owner == self.rank:
            self.recv[header] = (dst, dst_index)
            self.sources.add(src.owner)


class CoarseFineTask(NamedTuple):
    """Interpolation of one region of an owned fine patch from a padded
    coarse buffer of ``shape`` cells: ``holes`` fills the buffer's
    uncovered cells (see :func:`_hole_gather`), ``select`` cuts the region
    out of the prolonged buffer and ``dest`` addresses it in the patch."""

    fine: Patch
    shape: tuple[int, ...]
    holes: tuple[Index, Index] | None
    select: Index
    dest: Index


def coarse_fine_plan(targets: Sequence[tuple[Patch, Box]],
                     coarse: Sequence[Patch], ratio: int, rank: int
                     ) -> tuple[list[CoarseFineTask], Route]:
    """Plan the interpolation of each ``(fine patch, region)`` target from
    the ``coarse`` patches.

    A target needs the coarse cells under its region plus one ring for the
    slopes.  Every coarse patch overlapping that box contributes a block —
    routed to the fine patch's owner under the header ``(t, lo, hi)``,
    ``t`` being the target's position in ``targets`` — and the owner gets
    a :class:`CoarseFineTask`; the route's destinations are positions in
    the returned task list.

    The tasks are returned in order of buffer shape: a replay stacks each
    run of equal shapes and interpolates it in one call
    (:func:`repro.samr.ghost.fill_from_coarse`).
    """
    needs = [region.coarsen(ratio).grow(1) for _fine, region in targets]
    mine = sorted((t for t, (fine, _region) in enumerate(targets)
                   if fine.owner == rank), key=lambda t: needs[t].shape)
    slot_of = {t: slot for slot, t in enumerate(mine)}
    tasks: list[CoarseFineTask] = [None] * len(mine)
    route = Route(rank)
    for t, ((fine, region), need) in enumerate(zip(targets, needs)):
        slot = slot_of.get(t)  # None: another rank's task
        covered = (np.zeros(need.shape, dtype=bool) if slot is not None
                   else None)
        for cp in coarse:
            overlap = cp.box.intersection(need)
            if overlap.empty:
                continue
            into = overlap.slices(origin=need.lo)
            if covered is not None:
                covered[into] = True
            route.add(cp, _index(cp.slices_for(overlap)), fine.owner,
                      slot, _index(into), (t, overlap.lo, overlap.hi))
        if slot is not None:
            # the prolonged buffer covers the refined interior of ``need``
            fine_lo = tuple((l + 1) * ratio for l in need.lo)
            tasks[slot] = CoarseFineTask(
                fine, need.shape, _hole_gather(covered),
                _index(region.slices(origin=fine_lo)),
                _index(fine.slices_for(region)))
    return tasks, route


def surviving_overlaps(old: Sequence[Patch], new: Sequence[Patch],
                       rank: int) -> Route:
    """The route that carries a level's surviving data into the patches
    that replace it: wherever an ``old`` patch and a ``new`` one overlap,
    the old interior block goes to the new patch's owner under the header
    ``(new id, lo, hi)``.  Both lists are replicated like all patch
    metadata, so every rank derives its view of the same route."""
    route = Route(rank)
    for src in old:
        for dst in new:
            overlap = src.box.intersection(dst.box)
            if not overlap.empty:
                route.add(src, _index(src.slices_for(overlap)), dst.owner,
                          dst, _index(dst.slices_for(overlap)),
                          (dst.id, overlap.lo, overlap.hi))
    return route


def _hole_gather(covered: np.ndarray) -> tuple[Index, Index] | None:
    """``(holes, sources)`` such that ``buf[holes] = buf[sources]`` gives
    every uncovered cell of a padded coarse buffer (pad cells beyond the
    coarse level or the domain) the value of the nearest covered one.

    Each axis in turn is swept forward, then backward, a hole taking over
    its neighbour's source cell — the sweep runs on flat cell numbers, so
    replaying it is one gather.  ``None`` when nothing is uncovered.
    """
    if covered.all():
        return None
    source = np.where(
        covered, np.arange(covered.size).reshape(covered.shape), -1)
    for axis in range(source.ndim):
        lines = np.moveaxis(source, axis, 0)
        last = len(lines) - 1
        for cur, nbr in (*((i, i - 1) for i in range(1, last + 1)),
                         *((i, i + 1) for i in range(last - 1, -1, -1))):
            take = (lines[cur] < 0) & (lines[nbr] >= 0)
            lines[cur][take] = lines[nbr][take]
    if (source < 0).any():
        raise MeshError("coarse-fine assembly left unfilled cells")
    holes = np.nonzero(~covered)
    return (_index(holes),
            _index(np.unravel_index(source[holes], covered.shape)))


def _complete_coarse(fine_box: Box, ratio: int) -> Box:
    """Largest coarse box whose full refinement fits inside ``fine_box``."""
    lo = tuple(-((-l) // ratio) for l in fine_box.lo)  # ceil division
    hi = tuple((h + 1) // ratio - 1 for h in fine_box.hi)
    return Box(lo, hi)


class TransferSchedule:
    """Everything ``exchange_ghosts`` and ``restrict_level`` do on one
    level, as one rank's index tuples.

    ``patches`` are the level's patches and ``coarse`` those of the level
    below (``None`` on level 0); the schedule is a function of these two
    tuples, the level's ``domain`` box, the refinement ``ratio`` and the
    ``rank`` alone.

    Attributes
    ----------
    tasks, coarse_fine:
        Ghost regions under no same-level patch, interpolated from the
        level below (:func:`coarse_fine_plan`).
    siblings:
        Ghost regions overlapping another patch's interior, copied;
        headers are ``(dst id, lo, hi)``.
    boundaries:
        ``(patch, axis, side)`` of every owned patch face on the domain
        boundary (``side`` 0 = low, 1 = high).
    restriction:
        Complete coarse cells under each fine interior: the fine block to
        average and the coarse cells that receive it; headers are
        ``(coarse id, lo, hi)``.
    covered:
        ``{coarse patch id: [cell slices]}`` — the parts of each owned
        coarse patch's interior that lie under a patch of this level
        (what a composite integral over the hierarchy leaves out).
    """

    def __init__(self, patches: tuple[Patch, ...],
                 coarse: tuple[Patch, ...] | None, domain: Box, ratio: int,
                 rank: int) -> None:
        self.patches = patches
        self.coarse = coarse
        self.siblings = Route(rank)
        self.restriction = Route(rank)
        self.boundaries: list[tuple[Patch, int, int]] = []
        self.covered: dict[int, list[tuple[slice, ...]]] = {}
        boxes = [p.box for p in patches]
        targets: list[tuple[Patch, Box]] = []
        for dst in patches:
            halo = dst.ghost_box.intersection(domain)
            for src in patches:
                region = src.box.intersection(halo)
                if src.id == dst.id or region.empty:
                    continue
                self.siblings.add(
                    src, _index(src.slices_for(region)), dst.owner, dst,
                    _index(dst.slices_for(region)),
                    (dst.id, region.lo, region.hi))
            if coarse is not None:
                targets += [(dst, region)
                            for region in subtract_all([halo], boxes)]
            if dst.owner == rank:
                for axis in range(domain.ndim):
                    if dst.box.lo[axis] == domain.lo[axis]:
                        self.boundaries.append((dst, axis, 0))
                    if dst.box.hi[axis] == domain.hi[axis]:
                        self.boundaries.append((dst, axis, 1))
        below = coarse or ()
        self.tasks, self.coarse_fine = coarse_fine_plan(
            targets, below, ratio, rank)
        for fine in patches:
            under = fine.box.coarsen(ratio)
            for cp in below:
                cov = cp.box.intersection(under)
                if cov.empty:
                    continue
                if cp.owner == rank:
                    self.covered.setdefault(cp.id, []).append(
                        cov.slices(origin=cp.box.lo))
                # only complete coarse cells are restricted
                cov = _complete_coarse(
                    cov.refine(ratio).intersection(fine.box), ratio)
                if cov.empty:
                    continue
                self.restriction.add(
                    fine, _index(fine.slices_for(cov.refine(ratio))),
                    cp.owner, cp, _index(cp.slices_for(cov)),
                    (cp.id, cov.lo, cov.hi))
