"""Hierarchies and a transfer drill shared by the schedule tests.

``python tests/samr/transfer_cases.py OUT.npz`` (with ``PYTHONPATH`` at a
checkout's ``src``) pins that checkout's arrays for the fixed cases;
``data/transfer_parent.npz`` was written this way at the commit before
the cached transfer schedule (7fb83e9), whose ``exchange_ghosts`` and
``restrict_level`` redid the box algebra on every call.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from repro.mpi import ZERO_COST, mpirun
from repro.samr import Box, DataObject, Hierarchy, exchange_ghosts
from repro.samr.ghost import restrict_level


@dataclass(frozen=True)
class Case:
    """A hierarchy recipe: level-0 decomposition plus the boxes asked of
    each finer level (``set_level_boxes`` clips and nests them)."""

    base: tuple[int, int]
    decomposition: tuple[Box, ...]
    fine: tuple[tuple[Box, ...], ...]
    nranks: int = 1
    nvar: int = 1
    ratio: int = 2

    def build(self) -> Hierarchy:
        h = Hierarchy(self.base, max_levels=len(self.fine) + 1,
                      ratio=self.ratio, nghost=2, nranks=self.nranks)
        h.build_base_level(decomposition=list(self.decomposition))
        for n, boxes in enumerate(self.fine, start=1):
            h.set_level_boxes(n, list(boxes))
        return h


FIXED_CASES = {
    # fine patches across the level-0 seam, side by side, and in a corner
    "two_level": Case(
        base=(16, 16),
        decomposition=(Box((0, 0), (7, 15)), Box((8, 0), (15, 15))),
        fine=((Box((4, 4), (19, 15)), Box((20, 4), (27, 11)),
               Box((0, 24), (7, 31))),)),
    # three levels, five variables, unaligned level-2 boxes
    "three_level_nvar5": Case(
        base=(12, 12),
        decomposition=(Box((0, 0), (5, 5)), Box((6, 0), (11, 5)),
                       Box((0, 6), (5, 11)), Box((6, 6), (11, 11))),
        fine=((Box((0, 0), (11, 7)), Box((12, 0), (19, 7)),
               Box((8, 12), (19, 23))),
              (Box((0, 0), (15, 11)), Box((24, 2), (35, 13)),
               Box((21, 30), (35, 47)))),
        nvar=5),
    # two ranks: every kind of transfer crosses the rank boundary
    "two_level_two_ranks": Case(
        base=(16, 8),
        decomposition=(Box((0, 0), (7, 7)), Box((8, 0), (15, 7))),
        fine=((Box((12, 4), (19, 11)), Box((24, 0), (31, 7))),),
        nranks=2, nvar=2),
}


def fill_interiors(dobj: DataObject) -> None:
    """Rough, decomposition-independent data: a hash of (level, variable,
    global cell index), so minmod sees slopes of both signs."""
    dobj.fill(-7.0)
    for p in dobj.owned_patches():
        i = np.arange(p.box.lo[0], p.box.hi[0] + 1)[:, None]
        j = np.arange(p.box.lo[1], p.box.hi[1] + 1)[None, :]
        for k in range(dobj.nvar):
            mixed = (i * 73856093) ^ (j * 19349663) ^ (
                (k + 1) * 83492791) ^ ((p.level + 1) * 2654435)
            dobj.interior(p)[k] = (mixed % 1009) / 7.0


def drill(dobj: DataObject, comm=None, restrict=restrict_level,
          exchange=exchange_ghosts) -> dict[int, np.ndarray]:
    """Restrict finest-first, then fill the ghosts of every level; returns
    ``{patch id: ghosted array}`` of the owned patches."""
    h = dobj.hierarchy
    for lev in range(h.nlevels - 1, 0, -1):
        restrict(dobj, lev, comm=comm)
    for lev in range(h.nlevels):
        exchange(dobj, lev, comm=comm)
    return {p.id: dobj.array(p).copy() for p in dobj.owned_patches()}


def run_case(case: Case, backend: str | None = None, rounds: int = 1,
             **transfer_fns) -> dict[int, np.ndarray]:
    """``{patch id: array}`` of the whole hierarchy after the last of
    ``rounds`` drills (each from freshly filled interiors, all on one
    hierarchy per rank) on ``case.nranks`` ranks."""

    def main(comm=None):
        dobj = DataObject("f", case.build(), case.nvar,
                          rank=comm.rank if comm else 0)
        for _ in range(rounds):
            fill_interiors(dobj)
            out = drill(dobj, comm, **transfer_fns)
        return out

    if case.nranks == 1:
        return main()
    kwargs = {"backend": backend} if backend else {}
    merged: dict[int, np.ndarray] = {}
    for part in mpirun(case.nranks, main, machine=ZERO_COST, **kwargs):
        merged.update(part)
    return merged


if __name__ == "__main__":
    np.savez_compressed(sys.argv[1], **{
        f"{name}/{pid}": arr
        for name, case in FIXED_CASES.items()
        for pid, arr in run_case(case).items()})
