"""Regridding: periodic recreation of the patch hierarchy.

"The patch hierarchy is periodically recreated.  The solution is passed
through a filter to determine regions needing finer meshes, whereby new
patches are created and initialized with data from the coarse meshes
(provided there does not exist a patch of the same resolution over that
subdomain, wholly or partly).  ...  Upon patch recreation the domain
decomposition on multiple processors is re-defined."  (paper §3)

All levels advance with a common time step in this toolkit (no Berger-
Collela subcycling); see DESIGN.md.  Regridding therefore happens at a
synchronization point, which keeps the data-transfer logic purely spatial.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

import numpy as np

from repro.errors import MeshError
from repro.obs import trace as _obs
from repro.obs.metrics import get_registry as _obs_registry
from repro.samr.box import Box
from repro.samr.clustering import cluster_flags
from repro.samr.dataobject import DataObject
from repro.samr.flagging import assemble_level_flags, buffer_flags
from repro.samr.ghost import _move, fill_from_coarse
from repro.samr.hierarchy import Hierarchy
from repro.samr.schedule import coarse_fine_plan, surviving_overlaps

#: ``flag_fn(level) -> {patch_id: bool interior array}`` for owned patches.
FlagFn = Callable[[int], dict[int, np.ndarray]]


def regrid(
    hierarchy: Hierarchy,
    dataobjs: Sequence[DataObject],
    flag_fn: FlagFn,
    comm=None,
    buffer: int = 2,
    min_efficiency: float = 0.7,
    max_size: int = 32,
    min_size: int = 4,
) -> None:
    """Recreate every refinement level from fresh error flags.

    1. Flag cells on each existing level (finest candidates first) and
       cluster them into new box sets, enforcing proper nesting by adding
       the coarsened image of level ``l+2``'s new boxes to level ``l+1``'s
       flags.
    2. Rebuild levels coarsest-first: new patches are seeded by monotone
       bilinear prolongation from the (already rebuilt) coarser level, then
       overwritten with any old same-level data that overlaps.
    3. DataObjects are reallocated; ghost cells are left to the caller.
    """
    t0 = time.perf_counter() if _obs.on else 0.0
    max_new = hierarchy.max_levels - 1
    n_flag_levels = min(hierarchy.nlevels, max_new)
    if n_flag_levels == 0:
        return

    # -- step 1: dense flags per level, then boxes finest-first -------------
    dense: list[np.ndarray] = []
    origins: list[tuple[int, ...]] = []
    for lev in range(n_flag_levels):
        patch_flags = flag_fn(lev)
        d, origin = assemble_level_flags(hierarchy, lev, patch_flags, comm)
        if buffer > 0:
            d = buffer_flags(d, buffer)
        dense.append(d)
        origins.append(origin)

    new_boxes: dict[int, list[Box]] = {}
    for lev in range(n_flag_levels - 1, -1, -1):
        flags = dense[lev]
        # nesting: flag the footprint of the (finer) level we just designed
        finer = new_boxes.get(lev + 2, [])
        for fb in finer:
            cb = fb.coarsen(hierarchy.ratio ** 2).grow(1)
            cb = cb.intersection(hierarchy.domain_at(lev))
            if not cb.empty:
                flags[cb.slices(origin=origins[lev])] = True
        boxes = cluster_flags(flags, origins[lev],
                              min_efficiency=min_efficiency,
                              max_size=max_size, min_size=min_size)
        new_boxes[lev + 1] = [b.refine(hierarchy.ratio) for b in boxes]

    # -- step 2: rebuild levels coarsest-first ------------------------------
    top = 0
    for lev in range(1, max_new + 1):
        boxes = new_boxes.get(lev, [])
        if not boxes:
            break
        _rebuild_level(hierarchy, dataobjs, lev, boxes, comm)
        if hierarchy.level(lev).patches:
            top = lev
    hierarchy.drop_levels_above(top)
    for dobj in dataobjs:
        dobj.sync_allocation()
    if _obs.on:
        args = {"nlevels": hierarchy.nlevels,
                "total_cells": hierarchy.total_cells()}
        if comm is not None:
            args["vt"] = comm.clock
        _obs.complete("samr.regrid", "samr", t0, **args)
        reg = _obs_registry()
        reg.counter("samr.regrids").inc()
        reg.gauge("samr.levels").set(hierarchy.nlevels)
        for lev in range(hierarchy.nlevels):
            reg.gauge("samr.patches", level=lev).set(
                len(hierarchy.level(lev).patches))


# ---------------------------------------------------------------- helpers
def _rebuild_level(hierarchy: Hierarchy, dataobjs: Sequence[DataObject],
                   lev: int, boxes: Sequence[Box], comm=None) -> None:
    """Replace level ``lev`` by patches over ``boxes``: every new interior
    is prolonged from the (already rebuilt) level below, then overwritten
    with the surviving data of the old level wherever the two overlap.

    The overlaps are one more route of the transfer schedule
    (:func:`repro.samr.schedule.surviving_overlaps`) — built once,
    replayed per DataObject from the old arrays, neighbour to neighbour.
    """
    rank = 0 if comm is None else comm.rank
    old_patches = (tuple(hierarchy.level(lev).patches)
                   if lev < hierarchy.nlevels else ())
    # the old arrays live on for as long as these references do
    old_arrays = [{p: dobj.array(p) for p in old_patches if p.owner == rank}
                  for dobj in dataobjs]
    hierarchy.set_level_boxes(lev, boxes)
    for dobj in dataobjs:
        dobj.sync_allocation()
    new_patches = hierarchy.level(lev).patches
    seed = coarse_fine_plan(
        [(fine, fine.box) for fine in new_patches],
        hierarchy.level(lev - 1).patches, hierarchy.ratio, rank)
    survivors = surviving_overlaps(old_patches, new_patches, rank)
    for dobj, arrays in zip(dataobjs, old_arrays):
        fill_from_coarse(dobj, *seed, comm)
        _move(dobj, survivors, comm, source=arrays.__getitem__)
