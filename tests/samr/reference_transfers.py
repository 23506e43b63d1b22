"""The transfer code as it was before the cached schedule (commit 7fb83e9):
box algebra, a NaN sweep over the data and ``np.kron`` on every call.

Kept as the oracle the schedule tests compare against with ``==`` — the
replayed schedule must move exactly the same bits.  Not part of the
package; do not "fix" it to match.

It is also the last place a transfer is a world ``alltoall``: the
package replays its schedule neighbour to neighbour, and
``rebuild_level`` below keeps regrid's copy of surviving data
(``_snapshot_level`` / ``_copy_old_overlaps``, verbatim from commit
4b0ae62) as the oracle for that.

``fill_from_coarse`` is the replay of a coarse-fine plan as it was before
the shape-grouped fill (verbatim from commit 2459999): one buffer and one
``prolong_bilinear`` call per task.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import MeshError
from repro.samr.box import Box
from repro.samr.boxlist import subtract_all
from repro.samr.dataobject import DataObject
from repro.samr.ghost import _move, zero_gradient_bc
from repro.samr.hierarchy import Hierarchy
from repro.samr.patch import Patch
from repro.samr.prolong import _slope
from repro.samr.restrict import restrict_average
from repro.samr.schedule import CoarseFineTask, Route, coarse_fine_plan


def prolong_bilinear(coarse: np.ndarray, ratio: int,
                     limited: bool = True) -> np.ndarray:
    c = coarse[..., 1:-1, 1:-1]
    if ratio == 1:
        return c.copy()
    sx = _slope(coarse[..., 2:, 1:-1], c, coarse[..., :-2, 1:-1], limited)
    sy = _slope(coarse[..., 1:-1, 2:], c, coarse[..., 1:-1, :-2], limited)
    off = (np.arange(ratio) + 0.5) / ratio - 0.5
    return (
        np.repeat(np.repeat(c, ratio, axis=-2), ratio, axis=-1)
        + np.kron(sx, off[:, None] * np.ones((1, ratio)))
        + np.kron(sy, np.ones((ratio, 1)) * off[None, :])
    )


def exchange_ghosts(
    dobj: DataObject,
    level: int,
    comm=None,
    bc=None,
) -> None:
    hierarchy = dobj.hierarchy
    lvl = hierarchy.level(level)
    domain = hierarchy.domain_at(level)
    rank = 0 if comm is None else comm.rank

    if level > 0:
        _coarse_fine_fill(dobj, level, comm)

    # ---- same-level copies -------------------------------------------------
    sends: list[list] = [[] for _ in range(comm.size)] if comm else []
    for dst in lvl.patches:
        halo = dst.ghost_box.intersection(domain)
        for src in lvl.patches:
            if src.id == dst.id:
                continue
            region = src.box.intersection(halo)
            if region.empty:
                continue
            if src.owner == rank and dst.owner == rank:
                dobj.array(dst)[(slice(None), *dst.slices_for(region))] = \
                    dobj.array(src)[(slice(None), *src.slices_for(region))]
            elif src.owner == rank and comm is not None:
                payload = np.ascontiguousarray(
                    dobj.array(src)[(slice(None), *src.slices_for(region))])
                sends[dst.owner].append((dst.id, region.lo, region.hi, payload))
    if comm is not None and comm.size > 1:
        incoming = comm.alltoall(sends)
        for batch in incoming:
            for dst_id, lo, hi, payload in batch:
                dst = lvl.patch_by_id(dst_id)
                region = Box(lo, hi)
                dobj.array(dst)[(slice(None), *dst.slices_for(region))] = payload

    # ---- physical boundaries -----------------------------------------------
    fill = bc or zero_gradient_bc
    for patch in dobj.owned_patches(level):
        arr = dobj.array(patch)
        for axis in range(domain.ndim):
            if patch.box.lo[axis] == domain.lo[axis]:
                fill(patch, arr, axis, 0)
            if patch.box.hi[axis] == domain.hi[axis]:
                fill(patch, arr, axis, 1)


# --------------------------------------------------------------- coarse-fine
def _coarse_fine_fill(dobj: DataObject, level: int, comm=None) -> None:
    """Interpolate fine-patch ghost regions from the next coarser level."""
    hierarchy = dobj.hierarchy
    ratio = hierarchy.ratio
    lvl = hierarchy.level(level)
    coarse_lvl = hierarchy.level(level - 1)
    domain = hierarchy.domain_at(level)
    rank = 0 if comm is None else comm.rank
    nranks = 1 if comm is None else comm.size

    # Global schedule: (fine patch, fine ghost region, padded coarse region)
    tasks: list[tuple[Patch, Box, Box]] = []
    for fine in lvl.patches:
        halo = fine.ghost_box.intersection(domain)
        regions = subtract_all([halo], [p.box for p in lvl.patches])
        for region in regions:
            need = region.coarsen(ratio).grow(1)
            tasks.append((fine, region, need))

    # Payload routing: each coarse patch owner ships its overlap with every
    # "need" region to the fine patch owner.
    sends: list[list] = [[] for _ in range(nranks)]
    local: dict[tuple[int, int], list] = {}
    for t, (fine, region, need) in enumerate(tasks):
        for cp in coarse_lvl.patches:
            overlap = cp.box.intersection(need)
            if overlap.empty or cp.owner != rank:
                continue
            block = np.ascontiguousarray(
                dobj.array(cp)[(slice(None), *cp.slices_for(overlap))])
            if fine.owner == rank:
                local.setdefault((t, fine.id), []).append((overlap, block))
            else:
                sends[fine.owner].append((t, overlap.lo, overlap.hi, block))
    if comm is not None and comm.size > 1:
        incoming = comm.alltoall(sends)
        for batch in incoming:
            for t, lo, hi, block in batch:
                fine = tasks[t][0]
                local.setdefault((t, fine.id), []).append((Box(lo, hi), block))

    # Assemble each padded coarse buffer and interpolate into the ghost
    # region of the owned fine patch.
    for t, (fine, region, need) in enumerate(tasks):
        if fine.owner != rank:
            continue
        pieces = local.get((t, fine.id), [])
        buf = np.full((dobj.nvar, *need.shape), np.nan)
        for overlap, block in pieces:
            buf[(slice(None), *overlap.slices(origin=need.lo))] = block
        _fill_holes_nearest(buf)
        fine_block = prolong_bilinear(buf, ratio)
        # fine_block covers need-interior refined; select our region
        covered = Box(
            tuple((l + 1) * ratio for l in need.lo),
            tuple((h - 1 + 1) * ratio - 1 for h in need.hi),
        )
        sel = region.slices(origin=covered.lo)
        dobj.array(fine)[(slice(None), *fine.slices_for(region))] = \
            fine_block[(slice(None), *sel)]


def _fill_holes_nearest(buf: np.ndarray) -> None:
    """Replace NaNs by sweeping each axis forward/backward with the nearest
    valid value (handles pad cells beyond the coarse level or domain)."""
    if not np.isnan(buf).any():
        return
    for axis in range(1, buf.ndim):
        for idx in range(1, buf.shape[axis]):
            cur = np.take(buf, idx, axis=axis)
            prev = np.take(buf, idx - 1, axis=axis)
            mask = np.isnan(cur) & ~np.isnan(prev)
            if mask.any():
                sl = [slice(None)] * buf.ndim
                sl[axis] = idx
                view = buf[tuple(sl)]
                view[mask] = prev[mask]
        for idx in range(buf.shape[axis] - 2, -1, -1):
            cur = np.take(buf, idx, axis=axis)
            nxt = np.take(buf, idx + 1, axis=axis)
            mask = np.isnan(cur) & ~np.isnan(nxt)
            if mask.any():
                sl = [slice(None)] * buf.ndim
                sl[axis] = idx
                view = buf[tuple(sl)]
                view[mask] = nxt[mask]
    if np.isnan(buf).any():
        raise MeshError("coarse-fine assembly left unfilled cells")


# --------------------------------------------------------------- restriction
def restrict_level(dobj: DataObject, fine_level: int, comm=None) -> None:
    """Average fine interiors down onto the underlying coarse patches
    ("injection" step after advancing a fine level)."""
    hierarchy = dobj.hierarchy
    ratio = hierarchy.ratio
    lvl = hierarchy.level(fine_level)
    coarse_lvl = hierarchy.level(fine_level - 1)
    rank = 0 if comm is None else comm.rank
    nranks = 1 if comm is None else comm.size

    sends: list[list] = [[] for _ in range(nranks)]
    for fine in lvl.patches:
        if fine.owner != rank:
            continue
        fbox = fine.box
        cbox_full = fbox.coarsen(ratio)
        for cp in coarse_lvl.patches:
            cov = cp.box.intersection(cbox_full)
            if cov.empty:
                continue
            fcov = cov.refine(ratio).intersection(fbox)
            # only restrict complete coarse cells
            cov = _complete_coarse(fcov, ratio)
            if cov.empty:
                continue
            fcov = cov.refine(ratio)
            block = restrict_average(
                dobj.array(fine)[(slice(None), *fine.slices_for(fcov))], ratio)
            if cp.owner == rank:
                dobj.array(cp)[(slice(None), *cp.slices_for(cov))] = block
            else:
                sends[cp.owner].append((cp.id, cov.lo, cov.hi, block))
    if comm is not None and comm.size > 1:
        incoming = comm.alltoall(sends)
        for batch in incoming:
            for cid, lo, hi, block in batch:
                cp = coarse_lvl.patch_by_id(cid)
                cov = Box(lo, hi)
                dobj.array(cp)[(slice(None), *cp.slices_for(cov))] = block


def _complete_coarse(fine_box: Box, ratio: int) -> Box:
    """Largest coarse box whose full refinement fits inside ``fine_box``."""
    lo = tuple(-((-l) // ratio) for l in fine_box.lo)  # ceil division
    hi = tuple((h + 1) // ratio - 1 for h in fine_box.hi)
    return Box(lo, hi)


# ------------------------------------------- coarse-fine plan, task by task
def fill_from_coarse(dobj: DataObject, tasks: list[CoarseFineTask],
                     route: Route, comm=None) -> int:
    """Carry out a :func:`repro.samr.schedule.coarse_fine_plan`: assemble
    each task's padded coarse buffer, interpolate it (monotone bilinear)
    and store the selected region in the fine patch.  Returns the payload
    bytes this rank shipped."""
    bufs = [np.empty((dobj.nvar, *task.shape)) for task in tasks]
    shipped = _move(dobj, route, comm, target=bufs.__getitem__)
    ratio = dobj.hierarchy.ratio
    for task, buf in zip(tasks, bufs):
        if task.holes is not None:
            holes, sources = task.holes
            buf[holes] = buf[sources]
        dobj.array(task.fine)[task.dest] = \
            prolong_bilinear(buf, ratio)[task.select]
    return shipped


# ------------------------------------------------- regrid: surviving data
def rebuild_level(hierarchy, dataobjs, lev, boxes, comm=None) -> None:
    """One level of ``regrid`` step 2 as it was at 4b0ae62: snapshot, new
    boxes, seed from the level below, copy the old overlaps back."""
    rank = 0 if comm is None else comm.rank
    old_data = _snapshot_level(hierarchy, dataobjs, lev)
    hierarchy.set_level_boxes(lev, boxes)
    for dobj in dataobjs:
        dobj.sync_allocation()
    seed = coarse_fine_plan(
        [(fine, fine.box) for fine in hierarchy.level(lev).patches],
        hierarchy.level(lev - 1).patches, hierarchy.ratio, rank)
    for d, dobj in enumerate(dataobjs):
        fill_from_coarse(dobj, *seed, comm)
        _copy_old_overlaps(dobj, lev, old_data[d], comm)


def _snapshot_level(hierarchy: Hierarchy, dataobjs: Sequence[DataObject],
                    lev: int) -> list[list[tuple[Box, np.ndarray]]]:
    """Keep (box, interior copy) of owned patches of ``lev`` per DataObject
    before the level is destroyed."""
    out: list[list[tuple[Box, np.ndarray]]] = [[] for _ in dataobjs]
    if lev >= hierarchy.nlevels:
        return out
    for d, dobj in enumerate(dataobjs):
        for patch in list(dobj.owned_patches(lev)):
            out[d].append((patch.box, dobj.interior(patch).copy()))
    return out


def _copy_old_overlaps(dobj: DataObject, lev: int,
                       old: list[tuple[Box, np.ndarray]], comm=None) -> None:
    """Overwrite prolonged data with surviving same-resolution data.

    ``old`` holds this rank's pre-regrid patches; overlaps with new patches
    owned elsewhere are shipped point-to-point via one alltoall.
    """
    hierarchy = dobj.hierarchy
    lvl = hierarchy.level(lev)
    rank = 0 if comm is None else comm.rank
    nranks = 1 if comm is None else comm.size

    sends: list[list] = [[] for _ in range(nranks)]
    for old_box, data in old:
        for new_patch in lvl.patches:
            overlap = old_box.intersection(new_patch.box)
            if overlap.empty:
                continue
            block = data[(slice(None), *overlap.slices(origin=old_box.lo))]
            if new_patch.owner == rank:
                dobj.array(new_patch)[
                    (slice(None), *new_patch.slices_for(overlap))] = block
            else:
                sends[new_patch.owner].append(
                    (new_patch.id, overlap.lo, overlap.hi,
                     np.ascontiguousarray(block)))
    if comm is not None and comm.size > 1:
        incoming = comm.alltoall(sends)
        for batch in incoming:
            for pid, lo, hi, block in batch:
                new_patch = lvl.patch_by_id(pid)
                overlap = Box(lo, hi)
                dobj.array(new_patch)[
                    (slice(None), *new_patch.slices_for(overlap))] = block
